package dmpc

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"dmpc/internal/graph"
)

// fakeApply is a scripted Pipeline: every Apply returns a read-free
// window whose cost follows a known curve of the chunk size, recording
// the sizes it saw — a deterministic stand-in for an algorithm whose
// amortized rounds/update follow that curve. Having no claims oracle, it
// ingests in the foreign-Pipeline regime: only the k bound (and the tail)
// cut the stream.
type fakeApply struct {
	sizes   []int
	applied int // ops applied by earlier chunks
	// roundsPerUpdate(k) models the amortized cost at chunk size k.
	cost func(k int) float64
	// maxWords(k) models the per-round word pressure at chunk size k.
	words func(k int) int
}

func (f *fakeApply) Apply(ops []Op) (Results, MixedStats) {
	k := len(ops)
	f.sizes = append(f.sizes, k)
	st := HalfStats{Ops: k, Rounds: int(f.cost(k) * float64(k)), MaxWords: f.words(k)}
	f.applied += k
	return nil, MixedStats{Ops: k, Updates: st}
}
func (f *fakeApply) Cluster() *Cluster { return nil }
func (f *fakeApply) Close()            {}

// tuning overrides the policy parameters AutoBatcherConfig no longer
// carries — they are constants for every caller, but the scripted tests
// need exact trajectories (one-batch windows, no warmup) and edge cases
// (a word cap without a cluster, a raised floor). Zero keeps
// NewAutoBatcher's value; a negative WarmupBatches or ReprobeEvery
// disables that stage.
type tuning struct {
	StartK, MinK, CapWords, ProbeBatches, WarmupBatches, ReprobeEvery int
}

func tuned(cfg AutoBatcherConfig, tn tuning) *AutoBatcher {
	ab := NewAutoBatcher(cfg)
	ab.capWords = tn.CapWords
	if tn.MinK > 0 {
		ab.minK = tn.MinK
	}
	if tn.ProbeBatches > 0 {
		ab.probeBatches, ab.warmup = tn.ProbeBatches, tn.ProbeBatches
	}
	if tn.WarmupBatches != 0 {
		ab.warmup = max(tn.WarmupBatches, 0)
	}
	if tn.ReprobeEvery != 0 {
		ab.reprobeEvery = max(tn.ReprobeEvery, 0)
	}
	if tn.StartK > 0 {
		ab.k = ab.clamp(tn.StartK)
		ab.bestK = ab.k
	}
	return ab
}

// inserts returns n back-to-back insert arrivals at time zero.
func inserts(n int) []Arrival {
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = Ins(i, i+1)
	}
	return ArrivalsNow(ops)
}

// fullKs returns the k trajectory of an ingested stream: the size of
// every chunk cut by reaching k (a full chunk holds exactly the k it was
// cut at), leaving out the partial tail.
func fullKs(st StreamStats) []int {
	var ks []int
	for _, w := range st.Windows[:st.Flushes-st.FlushTail] {
		ks = append(ks, w.Ops)
	}
	return ks
}

// runAuto ingests n inserts through p with ab sizing the chunks and
// returns the k trajectory.
func runAuto(p Pipeline, ab *AutoBatcher, n int) []int {
	_, st := Ingest(p, inserts(n), IngestorConfig{Auto: ab})
	return fullKs(st)
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
	ab := tuned(AutoBatcherConfig{MaxK: 512}, tuning{ProbeBatches: 1, WarmupBatches: -1})
	ks := runAuto(f, ab, 64*20)
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
	ab := tuned(AutoBatcherConfig{MaxK: 64}, tuning{ProbeBatches: 3, WarmupBatches: -1})
	ks := runAuto(f, ab, 64*12)
	reached32 := false
	for _, k := range ks {
		if k >= 32 {
			reached32 = true
		}
	}
	if !reached32 {
		t.Fatalf("one noisy batch at k=16 stopped the probe: trajectory %v", ks)
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
	ab := tuned(AutoBatcherConfig{}, tuning{StartK: 32, CapWords: 200})
	// k=32 → 320 words > 200: halve to 16 and settle (160 words fits).
	ks := runAuto(f, ab, 32*8)
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
	f.cost = func(k int) float64 {
		if f.applied < 1500 {
			if k <= 64 {
				return 64.0 / float64(k) // phase 1: knee at 64
			}
			return 1.4
		}
		return float64(k) / 4 // phase 2: cost grows with k — small batches win
	}
	f.words = func(int) int { return 10 }
	ab := tuned(AutoBatcherConfig{MaxK: 128}, tuning{ProbeBatches: 1, WarmupBatches: -1, ReprobeEvery: 4})
	ks := runAuto(f, ab, 8000)
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
	ab := tuned(AutoBatcherConfig{MaxK: 128}, tuning{ProbeBatches: 1, WarmupBatches: -1, ReprobeEvery: 3})
	ks := runAuto(f, ab, 32*200)
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
	ab := tuned(AutoBatcherConfig{}, tuning{StartK: 32, CapWords: 200, ReprobeEvery: 2})
	ks := runAuto(f, ab, 32*40)
	for i, k := range ks {
		if i > 0 && k != 16 {
			t.Fatalf("batch %d ran at k=%d after the cap settle, want 16 forever (trajectory %v)", i, k, ks)
		}
	}
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// TestAutoBatcherPartialFlush pins that a short tail chunk is applied (once)
// but never drives adaptation.
func TestAutoBatcherPartialFlush(t *testing.T) {
	f := &fakeApply{
		cost:  func(k int) float64 { return 1000 }, // any full batch would stall the probe
		words: func(int) int { return 1 },
	}
	ab := NewAutoBatcher(AutoBatcherConfig{})
	ing := NewIngestor(IngestorConfig{Pipeline: f, Auto: ab})
	ing.Ingest(inserts(3))
	if _, st := ing.Close(); st.FlushTail != 1 {
		t.Fatalf("Close dropped a partial chunk: %+v", st)
	}
	ing.Close() // idempotent: nothing left to apply
	if got := ab.K(); got != 8 {
		t.Fatalf("partial flush moved K to %d", got)
	}
	if len(f.sizes) != 1 || f.sizes[0] != 3 {
		t.Fatalf("applied sizes %v, want [3]", f.sizes)
	}
}

// TestAutoBatcherOnConnectivity sizes chunks for the real §5 batch
// pipeline (ingested bounds-only, so every chunk but the tail is a full
// k): the search must grow k away from its start, and the stream's overall
// amortized rounds/update must beat running every batch at the starting
// size.
func TestAutoBatcherOnConnectivity(t *testing.T) {
	const n = 96
	stream := graph.RandomStream(n, 512, 0.55, 1, rand.New(rand.NewSource(5)))

	cc := NewConnectivity(n, 5*n)
	ab := NewAutoBatcher(AutoBatcherConfig{MaxK: 256})
	_, st := Ingest(foreignPipeline{cc}, ArrivalsNow(UpdateOps(stream)), IngestorConfig{Auto: ab})
	ks := fullKs(st)
	if slices.Max(ks) <= 8 {
		t.Fatalf("AutoBatcher never grew k: trajectory %v", ks)
	}
	auto := float64(st.Rounds) / float64(st.Updates)

	fixed := NewConnectivity(n, 5*n)
	var fRounds, fUpd int
	for _, b := range Chunk(stream, 8) {
		_, st := fixed.Apply(UpdateOps(b))
		fRounds += st.Updates.Rounds
		fUpd += st.Updates.Ops
	}
	fixed8 := float64(fRounds) / float64(fUpd)
	if auto >= fixed8 {
		t.Fatalf("adaptive amortized %.3f not better than fixed k=8 %.3f (trajectory %v)", auto, fixed8, ks)
	}
	if v := cc.Cluster().Stats().Violations; v != 0 {
		t.Fatalf("%d cluster constraint violations under AutoBatcher", v)
	}
}

// TestAutoBatcherMixedStream pins k-sizing on a mixed stream: a half-reads
// op stream is ingested through a Pipeline front door, the knee search
// still grows k (judged on amortized rounds per *op*), every query is
// answered exactly as a fresh sequential replica answers it, and the
// growing trajectory beats the starting chunk size on rounds/op.
func TestAutoBatcherMixedStream(t *testing.T) {
	const n = 96
	rng := rand.New(rand.NewSource(6))
	updates := graph.RandomStream(n, 384, 0.55, 1, rng)
	ops := graph.MixedStream(updates, 0.5, func(r *rand.Rand) Op {
		return QConnected(r.Intn(n), r.Intn(n))
	}, rng)

	cc := NewConnectivity(n, 5*n)
	ab := NewAutoBatcher(AutoBatcherConfig{MaxK: 256})
	got, st := Ingest(foreignPipeline{cc}, ArrivalsNow(ops), IngestorConfig{Auto: ab})
	ks := fullKs(st)
	if slices.Max(ks) <= 8 {
		t.Fatalf("mixed AutoBatcher never grew k: trajectory %v", ks)
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

	auto := st.RoundsPerOp()

	fixed := NewConnectivity(n, 5*n)
	var fRounds, fOps int
	for _, chunk := range SplitOps(ops, 8) {
		_, st := fixed.Apply(chunk)
		fRounds += st.Rounds()
		fOps += st.Ops
	}
	fixed8 := float64(fRounds) / float64(fOps)
	if auto >= fixed8 {
		t.Fatalf("adaptive rounds/op %.3f not better than fixed k=8 %.3f (trajectory %v)", auto, fixed8, ks)
	}
	if v := cc.Cluster().Stats().Violations; v != 0 {
		t.Fatalf("%d cluster violations", v)
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
	free := tuned(AutoBatcherConfig{MaxK: 512}, tuning{ProbeBatches: 1, WarmupBatches: -1})
	bound := tuned(AutoBatcherConfig{MaxK: 512, TargetP99Rounds: 40}, tuning{ProbeBatches: 1, WarmupBatches: -1})
	runAuto(mkFake(), free, 512*8)
	ks := runAuto(mkFake(), bound, 512*8)
	if free.K() != 512 {
		t.Fatalf("unconstrained search settled at %d, want MaxK 512", free.K())
	}
	if bound.K() != 16 {
		t.Fatalf("constrained search settled at %d, want 16 (trajectory %v)", bound.K(), ks)
	}
	for i, k := range ks {
		if k > 32 {
			t.Fatalf("batch %d ran at k=%d, above the first tail violation (trajectory %v)", i, k, ks)
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
	ab := tuned(AutoBatcherConfig{MaxK: 64, TargetP99Rounds: 40}, tuning{MinK: 2, ProbeBatches: 1, WarmupBatches: -1})
	if ks := runAuto(f, ab, 400); ab.K() != 2 {
		t.Fatalf("unachievable bound settled at %d, want MinK 2 (trajectory %v)", ab.K(), ks)
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
	ab := tuned(AutoBatcherConfig{MaxK: 64, TargetP99Rounds: 40}, tuning{StartK: 4, MinK: 1, ProbeBatches: 1, WarmupBatches: -1, ReprobeEvery: 2})
	ing := NewIngestor(IngestorConfig{Pipeline: f, Auto: ab})
	// 4 → 2 → 1 → infeasible: three violating windows, then settle.
	ing.Ingest(inserts(16))
	if ab.K() != 1 {
		t.Fatalf("unachievable bound settled at %d, want MinK 1 (chunks %v)", ab.K(), f.sizes)
	}
	if !ab.TailInfeasible() {
		t.Fatalf("TailInfeasible() = false after violating at MinK (chunks %v)", f.sizes)
	}
	atSettle := ab.TailViolations()
	if atSettle == 0 {
		t.Fatal("TailViolations() = 0, want the violating windows reported")
	}
	// Many re-probe periods past the settle: every batch must run at k=1
	// (each push flushes immediately — k never hit 0) and no new
	// violations may accrue, i.e. the re-probe never re-opens the climb.
	before := len(f.sizes)
	for i := 0; i < 40; i++ {
		ing.Push(Arrival{Op: Ins(1000+i, 1001+i)})
		if ing.Pending() != 0 {
			t.Fatalf("push %d after settling at k=1 did not flush a chunk", i)
		}
	}
	for i, k := range f.sizes[before:] {
		if k != 1 {
			t.Fatalf("batch %d after terminal settle ran at k=%d, want 1", before+i, k)
		}
	}
	if got := ab.TailViolations(); got != atSettle {
		t.Fatalf("TailViolations grew %d -> %d after terminal settle: re-probe re-opened the violation loop", atSettle, got)
	}
}

// TestAutoBatcherObserve pins the controller's one input, fed windows
// directly as the Ingestor feeds them: full chunks drive the knee search,
// chunks cut short are observed but never adapt.
func TestAutoBatcherObserve(t *testing.T) {
	ab := tuned(AutoBatcherConfig{}, tuning{StartK: 4, ProbeBatches: 1, WarmupBatches: -1})
	window := func(ops, rounds int) MixedStats {
		return MixedStats{Ops: ops, Updates: HalfStats{Ops: ops, Rounds: rounds}}
	}
	for i := 0; i < 3; i++ {
		ab.observe(window(2, 1000), false)
	}
	if ab.K() != 4 {
		t.Fatalf("non-full chunks adapted k to %d", ab.K())
	}
	ab.observe(window(4, 8), true)
	if ab.K() != 8 {
		t.Fatalf("a full chunk's first window grew k to %d, want 8", ab.K())
	}
}

// TestAutoBatcherObserveAllocs pins the controller's bounded state: once
// the probe window's sample buffer has grown to ProbeBatches, an
// observation allocates nothing — settled for good, and cycling through
// probe, settle and re-probe with and without the tail bound's in-place
// sort.
func TestAutoBatcherObserveAllocs(t *testing.T) {
	full := MixedStats{Ops: 8, Updates: HalfStats{Ops: 8, Rounds: 16, MaxWords: 10}}
	for name, ab := range map[string]*AutoBatcher{
		"settled":         tuned(AutoBatcherConfig{MaxK: 8}, tuning{ReprobeEvery: -1}),
		"probing":         tuned(AutoBatcherConfig{MaxK: 64}, tuning{ReprobeEvery: 2}),
		"probing, tailed": tuned(AutoBatcherConfig{MaxK: 64, TargetP99Rounds: 1 << 20}, tuning{ReprobeEvery: 2}),
	} {
		// One run is long enough to cross every state of the cycle (and
		// AllocsPerRun's warm-up run grows the sample buffer once).
		cycle := func() {
			for i := 0; i < 64; i++ {
				ab.observe(full, true)
			}
		}
		if got := testing.AllocsPerRun(20, cycle); got != 0 {
			t.Errorf("%s: 64 observations allocate %v, want 0", name, got)
		}
	}
}
