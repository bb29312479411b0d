package dmpc

import (
	"math"
	"math/rand"
	"testing"

	"dmpc/internal/graph"
)

// fakeApply returns a scripted BatchStats per call, recording the batch
// sizes it saw — a deterministic stand-in for an algorithm whose amortized
// rounds/update follow a known curve.
type fakeApply struct {
	sizes []int
	// roundsPerUpdate(k) models the amortized cost at chunk size k.
	cost func(k int) float64
	// maxWords(k) models the per-round word pressure at chunk size k.
	words func(k int) int
}

func (f *fakeApply) apply(b Batch) BatchStats {
	f.sizes = append(f.sizes, len(b))
	k := len(b)
	return BatchStats{
		Updates:     k,
		UpdateStats: UpdateStats{Rounds: int(f.cost(k) * float64(k)), MaxWords: f.words(k)},
	}
}

// asOps presents a scripted batch cost as the pipeline front door the
// AutoBatcher drives: a read-free window whose update half is the script.
func asOps(apply func(Batch) BatchStats) func([]Op) (Results, MixedStats) {
	return func(ops []Op) (Results, MixedStats) {
		b := make(Batch, len(ops))
		for i, op := range ops {
			b[i] = op.Update()
		}
		return nil, MixedStats{Ops: len(ops), Updates: apply(b)}
	}
}

// TestAutoBatcherFindsKnee pins the probe-and-settle policy on a scripted
// cost curve whose knee is at k=64: amortized rounds improve up to 64 and
// get measurably worse beyond it (saturation overhead), so the driver must
// grow 8→16→32→64, observe the worse window at 128, step back to 64 and
// hold there. ProbeBatches is 1 so the scripted trajectory is exact;
// window smoothing is pinned separately by
// TestAutoBatcherWindowSmoothsNoise.
func TestAutoBatcherFindsKnee(t *testing.T) {
	f := &fakeApply{
		cost: func(k int) float64 {
			if k <= 64 {
				return 64.0 / float64(k) // doubling k halves the cost up to the knee
			}
			return 1.4 // measurably worse beyond it
		},
		words: func(int) int { return 10 },
	}
	ab := NewAutoBatcher(AutoBatcherConfig{ApplyOps: asOps(f.apply), StartK: 8, MaxK: 512, ProbeBatches: 1, WarmupBatches: -1})
	for i := 0; i < 64*20; i++ {
		ab.Push(Update{Op: Insert, U: i, V: i + 1})
	}
	ks := ab.Ks()
	// 128 appears twice: the first bad window is a strike that re-measures,
	// the second settles back to the best-measured k.
	wantPrefix := []int{8, 16, 32, 64, 128, 128}
	for i, w := range wantPrefix {
		if i >= len(ks) || ks[i] != w {
			t.Fatalf("probe trajectory %v, want prefix %v", ks, wantPrefix)
		}
	}
	for i := len(wantPrefix); i < len(ks); i++ {
		if ks[i] != 64 {
			t.Fatalf("batch %d ran at k=%d after settling, want the knee 64 (trajectory %v)", i, ks[i], ks)
		}
	}
	if ab.K() != 64 {
		t.Fatalf("settled K() = %d, want 64", ab.K())
	}
}

// TestAutoBatcherWindowSmoothsNoise pins why each k is judged on a window
// of ProbeBatches batches rather than a single one: the first batch at
// k=16 is scripted to be anomalously expensive (a workload spike, the
// situation that used to settle the search prematurely), but the window
// average stays within Margin of k=8's, so the probe must keep growing
// past 16.
func TestAutoBatcherWindowSmoothsNoise(t *testing.T) {
	f := &fakeApply{}
	f.cost = func(k int) float64 {
		base := 64.0 / float64(k)
		if k == 16 && f.sizes[len(f.sizes)-1] == 16 && callCount(f.sizes, 16) == 1 {
			return base * 4 // one bad batch right after the doubling
		}
		return base
	}
	f.words = func(int) int { return 10 }
	ab := NewAutoBatcher(AutoBatcherConfig{ApplyOps: asOps(f.apply), StartK: 8, MaxK: 64, ProbeBatches: 3, WarmupBatches: -1})
	for i := 0; i < 64*12; i++ {
		ab.Push(Update{Op: Insert, U: i, V: i + 1})
	}
	reached32 := false
	for _, k := range ab.Ks() {
		if k >= 32 {
			reached32 = true
		}
	}
	if !reached32 {
		t.Fatalf("one noisy batch at k=16 stopped the probe: trajectory %v", ab.Ks())
	}
}

// callCount reports how many recorded batches ran at size k.
func callCount(sizes []int, k int) int {
	n := 0
	for _, s := range sizes {
		if s == k {
			n++
		}
	}
	return n
}

// TestAutoBatcherWordCapForcesShrink pins the S-cap feedback: when the
// measured MaxWords exceeds CapWords the driver halves k immediately and
// stops probing upward, whatever the round trend said.
func TestAutoBatcherWordCapForcesShrink(t *testing.T) {
	f := &fakeApply{
		cost:  func(k int) float64 { return 64.0 / float64(k) }, // rounds always favor growth
		words: func(k int) int { return 10 * k },                // but words grow with k
	}
	ab := NewAutoBatcher(AutoBatcherConfig{ApplyOps: asOps(f.apply), StartK: 32, CapWords: 200})
	for i := 0; i < 32*8; i++ {
		ab.Push(Update{Op: Insert, U: i, V: i + 1})
	}
	// k=32 → 320 words > 200: halve to 16 and settle (160 words fits).
	ks := ab.Ks()
	if len(ks) < 3 || ks[0] != 32 || ks[1] != 16 {
		t.Fatalf("cap trajectory %v, want 32 then 16", ks)
	}
	for i := 1; i < len(ks); i++ {
		if ks[i] != 16 {
			t.Fatalf("batch %d ran at k=%d, want 16 after the cap shrink (trajectory %v)", i, ks[i], ks)
		}
	}
}

// TestAutoBatcherReprobeTracksDrift pins the periodic re-probe: a
// long-lived stream whose cost curve drifts must not stay pinned at the
// stale knee. Phase 1 has the knee at k=64 (halving costs up to it); after
// the drift, rounds grow with k, so small batches win. Each re-probe
// period steps k down one notch, discards the stale best-window baseline,
// and re-runs the climb — over a few periods k must walk down from 64 and
// settle low, which the pre-drift baseline would have forbidden (every
// post-drift window looks "worse than best" forever).
func TestAutoBatcherReprobeTracksDrift(t *testing.T) {
	f := &fakeApply{}
	applied := 0
	f.cost = func(k int) float64 {
		if applied < 1500 {
			if k <= 64 {
				return 64.0 / float64(k) // phase 1: knee at 64
			}
			return 1.4
		}
		return float64(k) / 4 // phase 2: cost grows with k — small batches win
	}
	f.words = func(int) int { return 10 }
	ab := NewAutoBatcher(AutoBatcherConfig{
		ApplyOps: asOps(func(b Batch) BatchStats {
			st := f.apply(b)
			applied += len(b)
			return st
		}),
		StartK: 8, MaxK: 128, ProbeBatches: 1, WarmupBatches: -1, ReprobeEvery: 4,
	})
	for i := 0; i < 8000; i++ {
		ab.Push(Update{Op: Insert, U: i, V: i + 1})
	}
	ks := ab.Ks()
	settledAtKnee := false
	for i, k := range ks {
		if k == 64 && i+1 < len(ks) && ks[i+1] == 64 {
			settledAtKnee = true
		}
	}
	if !settledAtKnee {
		t.Fatalf("phase 1 never settled at the knee 64: trajectory %v", ks)
	}
	if got := ab.K(); got > 8 {
		t.Fatalf("after the drift the re-probe left k at %d, want <= 8 (trajectory tail %v)",
			got, ks[maxi(0, len(ks)-12):])
	}
}

// TestAutoBatcherReprobeStableWorkload pins that re-probing a stable
// workload is safe: the search steps down, re-measures, climbs back and
// settles at the same knee instead of wandering.
func TestAutoBatcherReprobeStableWorkload(t *testing.T) {
	f := &fakeApply{
		cost: func(k int) float64 {
			if k <= 32 {
				return 32.0 / float64(k)
			}
			return 1.5
		},
		words: func(int) int { return 10 },
	}
	ab := NewAutoBatcher(AutoBatcherConfig{
		ApplyOps: asOps(f.apply), StartK: 8, MaxK: 128,
		ProbeBatches: 1, WarmupBatches: -1, ReprobeEvery: 3,
	})
	for i := 0; i < 32*200; i++ {
		ab.Push(Update{Op: Insert, U: i, V: i + 1})
	}
	ks := ab.Ks()
	// A probe may be in flight when the stream ends, so judge the cycle,
	// not the final instant: after the first settle the search must stay
	// within one notch of the knee, and every re-probe climb must re-settle
	// at 32 (the two-strike step-back from 64 to 32).
	first := -1
	for i := 0; i+1 < len(ks); i++ {
		if ks[i] == 32 && ks[i+1] == 32 {
			first = i
			break
		}
	}
	if first < 0 {
		t.Fatalf("stable workload never settled at the knee 32: trajectory %v", ks)
	}
	resettles := 0
	for i := first; i < len(ks); i++ {
		if ks[i] != 16 && ks[i] != 32 && ks[i] != 64 {
			t.Fatalf("re-probe wandered to k=%d on a stable workload (trajectory tail %v)",
				ks[i], ks[maxi(0, i-6):])
		}
		if i >= 2 && ks[i] == 32 && ks[i-1] == 64 && ks[i-2] == 64 {
			resettles++ // two strikes at 64, stepped back to the knee
		}
	}
	if resettles < 2 {
		t.Fatalf("only %d re-probe cycles re-settled at the knee (trajectory %v)", resettles, ks)
	}
}

// TestAutoBatcherCapSettleNeverReprobes pins that a word-cap settle is
// final: re-opening the search would grow k back into the budget violation
// on a schedule.
func TestAutoBatcherCapSettleNeverReprobes(t *testing.T) {
	f := &fakeApply{
		cost:  func(k int) float64 { return 64.0 / float64(k) }, // rounds always favor growth
		words: func(k int) int { return 10 * k },
	}
	ab := NewAutoBatcher(AutoBatcherConfig{
		ApplyOps: asOps(f.apply), StartK: 32, CapWords: 200, ReprobeEvery: 2,
	})
	for i := 0; i < 32*40; i++ {
		ab.Push(Update{Op: Insert, U: i, V: i + 1})
	}
	for i, k := range ab.Ks() {
		if i > 0 && k != 16 {
			t.Fatalf("batch %d ran at k=%d after the cap settle, want 16 forever (trajectory %v)", i, k, ab.Ks())
		}
	}
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// TestAutoBatcherPartialFlush pins that a short tail batch is applied and
// recorded but never drives adaptation.
func TestAutoBatcherPartialFlush(t *testing.T) {
	f := &fakeApply{
		cost:  func(k int) float64 { return 1000 }, // any full batch would stall the probe
		words: func(int) int { return 1 },
	}
	ab := NewAutoBatcher(AutoBatcherConfig{ApplyOps: asOps(f.apply), StartK: 8})
	for i := 0; i < 3; i++ {
		ab.Push(Update{Op: Insert, U: i, V: i + 1})
	}
	if _, ok := ab.Flush(); !ok {
		t.Fatal("Flush dropped a partial batch")
	}
	if _, ok := ab.Flush(); ok {
		t.Fatal("Flush applied an empty batch")
	}
	if got := ab.K(); got != 8 {
		t.Fatalf("partial flush moved K to %d", got)
	}
	if len(f.sizes) != 1 || f.sizes[0] != 3 {
		t.Fatalf("applied sizes %v, want [3]", f.sizes)
	}
}

// TestAutoBatcherOnConnectivity drives the real §5 batch pipeline: the
// driver must grow k away from its start, and its overall amortized
// rounds/update must beat running every batch at the starting size.
func TestAutoBatcherOnConnectivity(t *testing.T) {
	const n = 96
	stream := graph.RandomStream(n, 512, 0.55, 1, rand.New(rand.NewSource(5)))

	cc := NewConnectivity(n, 5*n)
	ab := NewAutoBatcher(AutoBatcherConfig{
		ApplyOps: cc.Apply,
		CapWords: cc.Cluster().Machines() * cc.Cluster().MemWords(),
		StartK:   8,
		MaxK:     256,
	})
	ab.Run(stream)
	grew := false
	for _, k := range ab.Ks() {
		if k > 8 {
			grew = true
		}
	}
	if !grew {
		t.Fatalf("AutoBatcher never grew k: trajectory %v", ab.Ks())
	}
	var rounds, upd int
	for _, st := range ab.History() {
		rounds += st.Rounds
		upd += st.Updates
	}
	auto := float64(rounds) / float64(upd)

	fixed := NewConnectivity(n, 5*n)
	var fRounds, fUpd int
	for _, b := range Chunk(stream, 8) {
		_, st := fixed.Apply(UpdateOps(b))
		fRounds += st.Updates.Rounds
		fUpd += st.Updates.Updates
	}
	fixed8 := float64(fRounds) / float64(fUpd)
	if auto >= fixed8 {
		t.Fatalf("adaptive amortized %.3f not better than fixed k=8 %.3f (trajectory %v)", auto, fixed8, ab.Ks())
	}
	if v := cc.Cluster().Stats().Violations; v != 0 {
		t.Fatalf("%d cluster constraint violations under AutoBatcher", v)
	}
}

// TestAutoBatcherMixedStream pins the mixed-mode driver: a half-reads op
// stream flows through a Pipeline front door, the knee search still grows
// k (now judged on amortized rounds per *op*), every query is answered
// exactly as a fresh sequential replica answers it, and the growing
// trajectory beats the starting chunk size on rounds/op.
func TestAutoBatcherMixedStream(t *testing.T) {
	const n = 96
	rng := rand.New(rand.NewSource(6))
	updates := graph.RandomStream(n, 384, 0.55, 1, rng)
	ops := graph.MixedStream(updates, 0.5, func(r *rand.Rand) Op {
		return OpQConnected(r.Intn(n), r.Intn(n))
	}, rng)

	cc := NewConnectivity(n, 5*n)
	ab := NewAutoBatcher(AutoBatcherConfig{
		ApplyOps: cc.Apply,
		CapWords: cc.Cluster().Machines() * cc.Cluster().MemWords(),
		StartK:   8,
		MaxK:     256,
	})
	got := ab.RunOps(ops)

	grew := false
	for _, k := range ab.Ks() {
		if k > 8 {
			grew = true
		}
	}
	if !grew {
		t.Fatalf("mixed AutoBatcher never grew k: trajectory %v", ab.Ks())
	}
	if len(ab.MixedHistory()) != len(ab.History()) || len(ab.Ks()) != len(ab.History()) {
		t.Fatalf("histories misaligned: %d mixed, %d batch, %d ks",
			len(ab.MixedHistory()), len(ab.History()), len(ab.Ks()))
	}

	// Bit-identical answers vs sequential replay at the same positions.
	ref := NewConnectivity(n, 5*n)
	var want Results
	for _, op := range ops {
		res, _ := ref.Apply([]Op{op})
		want = append(want, res...)
	}
	if len(got) != len(want) {
		t.Fatalf("%d answers, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("answer %d is %+v, want %+v", i, got[i], want[i])
		}
	}

	var rounds, opsN int
	for _, st := range ab.MixedHistory() {
		rounds += st.Rounds()
		opsN += st.Ops
	}
	auto := float64(rounds) / float64(opsN)

	fixed := NewConnectivity(n, 5*n)
	var fRounds, fOps int
	for _, chunk := range SplitOps(ops, 8) {
		_, st := fixed.Apply(chunk)
		fRounds += st.Rounds()
		fOps += st.Ops
	}
	fixed8 := float64(fRounds) / float64(fOps)
	if auto >= fixed8 {
		t.Fatalf("adaptive rounds/op %.3f not better than fixed k=8 %.3f (trajectory %v)", auto, fixed8, ab.Ks())
	}
	if v := cc.Cluster().Stats().Violations; v != 0 {
		t.Fatalf("%d cluster violations", v)
	}
}

// TestAutoBatcherModeGuards pins the configuration contract: ApplyOps is
// required, the clamps must be consistent, and the one mode ingests
// queries and updates alike.
func TestAutoBatcherModeGuards(t *testing.T) {
	wantPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	noop := func([]Op) (Results, MixedStats) { return nil, MixedStats{} }
	wantPanic("no front door", func() { NewAutoBatcher(AutoBatcherConfig{}) })
	wantPanic("MaxK below MinK", func() { NewAutoBatcher(AutoBatcherConfig{ApplyOps: noop, MinK: 8, MaxK: 4}) })
	// The one mode takes reads and writes alike.
	ab := NewAutoBatcher(AutoBatcherConfig{ApplyOps: noop, StartK: 2})
	ab.PushOp(OpQMateOf(1))
	if _, ok := ab.Push(Update{Op: Insert, U: 0, V: 1}); !ok {
		t.Fatal("a query and an update did not fill a k=2 chunk")
	}
}

// TestAutoBatcherFlushOps pins the mixed-tail contract: FlushOps returns
// the partial chunk's answers, and Flush refuses to discard them.
func TestAutoBatcherFlushOps(t *testing.T) {
	cc := NewConnectivity(16, 64)
	ab := NewAutoBatcher(AutoBatcherConfig{ApplyOps: cc.Apply, StartK: 8})
	ab.PushOp(OpIns(0, 1, 1))
	ab.PushOp(OpQConnected(0, 1))
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Flush with buffered queries did not panic")
			}
		}()
		ab.Flush()
	}()
	res, st, ok := ab.FlushOps()
	if !ok || len(res) != 1 || !res[0].Bool || st.Updates != 1 {
		t.Fatalf("FlushOps = (%v, %+v, %v), want the buffered query answered", res, st, ok)
	}
	if _, _, ok := ab.FlushOps(); ok {
		t.Fatal("FlushOps on an empty buffer reported a flush")
	}
	// Update-only tails still drain through plain Flush.
	ab.PushOp(OpIns(1, 2, 1))
	if _, ok := ab.Flush(); !ok {
		t.Fatal("Flush on an update-only tail failed")
	}
}

// TestAutoBatcherTargetP99CapsK pins the tail constraint on a scripted
// curve where amortized rounds/update keep improving with k forever
// (rounds per chunk grow like sqrt(k)), so the unconstrained search
// climbs to MaxK — but the worst-case p99 (every op waits its chunk's
// whole window) crosses TargetP99Rounds at k=32, so the constrained
// search must back off to 16 and hold there: minimize rounds/op subject
// to the tail bound.
func TestAutoBatcherTargetP99CapsK(t *testing.T) {
	mkFake := func() *fakeApply {
		return &fakeApply{
			// rounds(k) = 8·sqrt(k): 22 at k=8, 32 at k=16, 45 at k=32.
			cost:  func(k int) float64 { return 8 / math.Sqrt(float64(k)) },
			words: func(int) int { return 10 },
		}
	}
	free := NewAutoBatcher(AutoBatcherConfig{
		ApplyOps: asOps(mkFake().apply), StartK: 8, MaxK: 512, ProbeBatches: 1, WarmupBatches: -1,
	})
	bound := NewAutoBatcher(AutoBatcherConfig{
		ApplyOps: asOps(mkFake().apply), StartK: 8, MaxK: 512, ProbeBatches: 1, WarmupBatches: -1,
		TargetP99Rounds: 40,
	})
	for i := 0; i < 512*8; i++ {
		up := Update{Op: Insert, U: i, V: i + 1}
		free.Push(up)
		bound.Push(up)
	}
	if free.K() != 512 {
		t.Fatalf("unconstrained search settled at %d, want MaxK 512", free.K())
	}
	if bound.K() != 16 {
		t.Fatalf("constrained search settled at %d, want 16 (trajectory %v)", bound.K(), bound.Ks())
	}
	for i, k := range bound.Ks() {
		if k > 32 {
			t.Fatalf("batch %d ran at k=%d, above the first tail violation (trajectory %v)",
				i, k, bound.Ks())
		}
	}
}

// TestAutoBatcherTargetP99Unachievable pins the degenerate case: when
// even MinK violates the bound, the search settles at MinK instead of
// thrashing.
func TestAutoBatcherTargetP99Unachievable(t *testing.T) {
	f := &fakeApply{
		cost:  func(k int) float64 { return 100 / float64(k) }, // 100 rounds per chunk at any k
		words: func(int) int { return 10 },
	}
	ab := NewAutoBatcher(AutoBatcherConfig{
		ApplyOps: asOps(f.apply), StartK: 8, MinK: 2, MaxK: 64, ProbeBatches: 1, WarmupBatches: -1,
		TargetP99Rounds: 40,
	})
	for i := 0; i < 400; i++ {
		ab.Push(Update{Op: Insert, U: i, V: i + 1})
	}
	if ab.K() != 2 {
		t.Fatalf("unachievable bound settled at %d, want MinK 2 (trajectory %v)", ab.K(), ab.Ks())
	}
}

// TestAutoBatcherTailInfeasibleAtMinK pins the k=1 edge of the tail
// bound: when every chunk costs more rounds than TargetP99Rounds even at
// k=MinK=1, the search must settle terminally at 1 — MaxK must never
// reach 0 (a k of 0 would buffer forever and flush nothing), and the
// periodic re-probe must not re-open the climb into a violation loop.
// The violations that shaped the search stay visible through
// TailViolations/TailInfeasible instead of being swallowed.
func TestAutoBatcherTailInfeasibleAtMinK(t *testing.T) {
	f := &fakeApply{
		cost:  func(k int) float64 { return 100 / float64(k) }, // 100 rounds per chunk at any k
		words: func(int) int { return 10 },
	}
	ab := NewAutoBatcher(AutoBatcherConfig{
		ApplyOps: asOps(f.apply), StartK: 4, MinK: 1, MaxK: 64, ProbeBatches: 1, WarmupBatches: -1,
		ReprobeEvery: 2, TargetP99Rounds: 40,
	})
	// 4 → 2 → 1 → infeasible: three violating windows, then settle.
	for i := 0; i < 16; i++ {
		ab.Push(Update{Op: Insert, U: i, V: i + 1})
	}
	if ab.K() != 1 {
		t.Fatalf("unachievable bound settled at %d, want MinK 1 (trajectory %v)", ab.K(), ab.Ks())
	}
	if !ab.TailInfeasible() {
		t.Fatalf("TailInfeasible() = false after violating at MinK (trajectory %v)", ab.Ks())
	}
	atSettle := ab.TailViolations()
	if atSettle == 0 {
		t.Fatal("TailViolations() = 0, want the violating windows reported")
	}
	// Many re-probe periods past the settle: every batch must run at k=1
	// (each push flushes immediately — k never hit 0) and no new
	// violations may accrue, i.e. the re-probe never re-opens the climb.
	before := len(ab.Ks())
	for i := 0; i < 40; i++ {
		if _, applied := ab.Push(Update{Op: Insert, U: 1000 + i, V: 1001 + i}); !applied {
			t.Fatalf("push %d after settling at k=1 did not flush a chunk", i)
		}
	}
	for i, k := range ab.Ks()[before:] {
		if k != 1 {
			t.Fatalf("batch %d after terminal settle ran at k=%d, want 1", before+i, k)
		}
	}
	if got := ab.TailViolations(); got != atSettle {
		t.Fatalf("TailViolations grew %d -> %d after terminal settle: re-probe re-opened the violation loop", atSettle, got)
	}
}

// TestAutoBatcherApplyChunk pins the externally-formed-chunk entry: full
// chunks feed the knee search exactly like Push-cut chunks, non-full
// chunks are recorded but never adapt, and the guards reject misuse.
func TestAutoBatcherApplyChunk(t *testing.T) {
	cc := NewConnectivity(32, 128)
	ab := NewAutoBatcher(AutoBatcherConfig{ApplyOps: cc.Apply, StartK: 4, ProbeBatches: 1, WarmupBatches: -1})
	// Partial chunks: recorded, no adaptation.
	for i := 0; i < 6; i += 2 {
		if _, st := ab.ApplyChunk([]Op{Ins(i, i+1), QConnected(i, i+1)}, false); st.Ops != 2 {
			t.Fatalf("chunk window covers %d ops, want 2", st.Ops)
		}
	}
	if ab.K() != 4 {
		t.Fatalf("non-full chunks adapted k to %d", ab.K())
	}
	if len(ab.MixedHistory()) != 3 || len(ab.Ks()) != 3 {
		t.Fatalf("chunks not recorded: %d windows, %d ks", len(ab.MixedHistory()), len(ab.Ks()))
	}
	// Full chunks drive the search: k grows off a full window.
	for k := ab.K(); ab.K() == k; {
		chunk := make([]Op, ab.K())
		for j := range chunk {
			chunk[j] = QComponentOf(j)
		}
		ab.ApplyChunk(chunk, true)
	}
	if ab.K() <= 4 {
		t.Fatalf("full chunks did not grow k: %d", ab.K())
	}
	wantPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	wantPanic("ApplyChunk with a dirty Push buffer", func() {
		ab.PushOp(Ins(20, 21))
		ab.ApplyChunk([]Op{Ins(22, 23)}, false)
	})
}
