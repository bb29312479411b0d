package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"dmpc/internal/etour"
	"dmpc/internal/graph"
	"dmpc/internal/mpc"
	"dmpc/internal/sched"
	"dmpc/internal/treedp"
)

// span is one timed interval at a layer boundary, taken from outside
// the program around a call into the layer. Replay marks a span that
// re-executes recorded work beside the run (the packer over recorded
// items) instead of timing the run's own call.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // -1: the root
	Window int    `json:"window"` // -1: not inside a window
	Replay bool   `json:"replay"`
}

// tracer keeps a run's spans in memory; they are written out when the
// traced run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, window int, replay bool) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans), Name: name, Parent: parent, Window: window, Replay: replay,
		Start: time.Since(t.t0).Nanoseconds(),
	})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) float64 {
	t.spans[id].End = time.Since(t.t0).Nanoseconds()
	return float64(t.spans[id].End - t.spans[id].Start)
}

// traceDir is where span files go; tests point it at a temp dir.
var traceDir = ""

func (t *tracer) write(workload string, seed int64) error {
	dir := traceDir
	if dir == "" {
		root, err := repoRoot()
		if err != nil {
			return err
		}
		dir = filepath.Join(root, "bench", "out")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}

// countedMachine counts a machine's active rounds from outside: settle
// asks every active machine for MemWords, so a machine's rounds are the
// weight of its MemWords cost in the run.
type countedMachine struct {
	mpc.Machine
	rounds int
}

func (c *countedMachine) HandleRound(ctx *mpc.Ctx, inbox []mpc.Message) {
	c.rounds++
	c.Machine.HandleRound(ctx, inbox)
}

func (c *countedMachine) MemWords() int { return c.Machine.(mpc.MemReporter).MemWords() }

// memSampler integrates the MemWords accounting cost over a run. A
// machine's MemWords may scan its state, which grows with history, so
// the cost is sampled at checkpoints: each bills the rounds a machine was
// active since the last one at what a call costs now.
type memSampler struct {
	machines []*countedMachine
	billed   []int
	ns       float64 // Σ rounds × ns per call
	calls    int
}

func countMachines(cl *mpc.Cluster) *memSampler {
	s := &memSampler{}
	for i := 0; i < cl.Machines(); i++ {
		m := cl.MachineAt(i)
		if _, ok := m.(mpc.MemReporter); !ok {
			continue
		}
		cm := &countedMachine{Machine: m}
		cl.SetMachine(i, cm)
		s.machines = append(s.machines, cm)
	}
	s.billed = make([]int, len(s.machines))
	return s
}

func (s *memSampler) sample() {
	const calls = 8 // per timing, so that the clock reads cost little beside them
	for i, m := range s.machines {
		due := m.rounds - s.billed[i]
		if due == 0 {
			continue
		}
		t0 := time.Now()
		for j := 0; j < calls; j++ {
			kernelSink += m.MemWords()
		}
		s.ns += float64(due) * float64(time.Since(t0).Nanoseconds()) / calls
		s.calls += due
		s.billed[i] = m.rounds
	}
}

// kernelSink keeps the timed kernel loops from being optimised away.
var kernelSink int

// traced is what the traced pass measures.
type traced struct {
	applyNs, claimsNs, packNs float64
	packAllocs                uint64
	claimsAllocsPerCall       float64 // sampled at the checkpoint windows
	itemsRead                 int
	wallNs                    float64
	memNs                     float64
	memCalls                  int
	stateWords                int
	entropy                   float64
	maxPairWords              int
	counts                    counts
	answers                   graph.Results
	prefixApplyNs             float64 // apply spans of the first tenth of the windows
}

// prefixWindows is how many windows the cross-backend prefix covers.
func prefixWindows(windows []mpc.MixedStats) int {
	return max(1, len(windows)/10)
}

// runTraced replays the untraced run's exact windows against the core
// built directly, timing each layer's public functions from outside.
// Between two windows it only reads the next window's claims; everything
// else that is not the run itself — MemStats reads, MemWords sampling —
// happens at ten checkpoints, and the packer replay after the run, so
// that the apply spans see the caches the untraced run saw.
func runTraced(w *workload, in input, windows []mpc.MixedStats, tr *tracer) traced {
	inst, _ := setUp(w, in, w.direct, mpc.BackendParallel)
	defer inst.close()
	mem := countMachines(inst.cl)

	var t traced
	t.counts.Ops = len(in.ops)
	m := mark(inst.cl)
	items := make([][]sched.Item, len(windows))
	prefix := prefixWindows(windows)
	step := (len(windows) + 9) / 10
	var sampledAllocs uint64
	sampledCalls := 0
	root := tr.begin("run", -1, -1, false)
	off := 0
	for wi, ws := range windows {
		chunk := in.ops[off : off+ws.Ops]
		off += ws.Ops
		checkpoint := (wi+1)%step == 0 || wi == len(windows)-1
		items[wi] = make([]sched.Item, len(chunk))
		win := tr.begin("window", root, wi, false)

		var m0 uint64
		if checkpoint {
			m0 = mallocs()
		}
		id := tr.begin("claims", win, wi, false)
		for i, op := range chunk {
			items[wi][i] = inst.claims(op)
		}
		t.claimsNs += tr.end(id)
		if checkpoint {
			sampledAllocs += mallocs() - m0
			sampledCalls += len(chunk)
		}

		id = tr.begin("apply", win, wi, false)
		res, st := inst.apply(chunk)
		ns := tr.end(id)
		tr.end(win)
		t.applyNs += ns
		if wi < prefix {
			t.prefixApplyNs += ns
		}
		t.answers = append(t.answers, res...)
		t.counts.fold(st)
		if checkpoint {
			mem.sample()
		}
	}
	t.wallNs = tr.end(root)
	t.counts.close(inst.cl, m)
	t.claimsAllocsPerCall = float64(sampledAllocs) / float64(sampledCalls)
	t.memNs, t.memCalls = mem.ns, mem.calls
	for _, cm := range mem.machines {
		t.stateWords += cm.MemWords()
	}
	t.entropy, t.maxPairWords = inst.cl.CommEntropy(), inst.cl.MaxPairWords()
	t.replayPack(w, inst.cl.MemWords(), items, tr)
	return t
}

// replayPack re-runs the packer over every window's recorded items: the
// wave loop ApplyOps runs (sched.Drive with a no-op exec), or — for the
// §6 core, whose ApplyOps packs no waves — the front door's own admitter,
// reset at every recorded window boundary. It counts the items read.
func (t *traced) replayPack(w *workload, budget int, items [][]sched.Item, tr *tracer) {
	pack := func(win []sched.Item) {
		sched.Drive(len(win), func(i int) sched.Item { t.itemsRead++; return win[i] }, budget, func([]int) {})
	}
	if w.open {
		adm := sched.NewAdmitterFair(budget, sched.NewFair(budget, ammWeights))
		pack = func(win []sched.Item) {
			for _, it := range win {
				adm.Admit(it)
			}
			adm.Reset()
			t.itemsRead += len(win)
		}
	}
	m0 := mallocs()
	root := tr.begin("replay", -1, -1, true)
	for wi, win := range items {
		id := tr.begin("pack", root, wi, true)
		pack(win)
		t.packNs += tr.end(id)
	}
	tr.end(root)
	t.packAllocs = mallocs() - m0
}

// simPrefix replays the first tenth of the windows against the core on
// the sim backend: the single-threaded baseline, and the cross-backend
// check of answers and rounds.
func simPrefix(w *workload, in input, windows []mpc.MixedStats) (ns float64, rounds int, answers graph.Results) {
	inst, _ := setUp(w, in, w.direct, mpc.BackendSim)
	defer inst.close()
	off := 0
	for _, ws := range windows[:prefixWindows(windows)] {
		chunk := in.ops[off : off+ws.Ops]
		off += ws.Ops
		t0 := time.Now()
		res, st := inst.apply(chunk)
		ns += float64(time.Since(t0).Nanoseconds())
		rounds += st.Rounds()
		answers = append(answers, res...)
	}
	return ns, rounds, answers
}

// forwarder is the null handler of the round replay: it passes every
// message on, so that a round stages, delivers and settles a constant
// load with no handler work.
type forwarder struct{ next int }

func (f forwarder) HandleRound(ctx *mpc.Ctx, inbox []mpc.Message) {
	for _, m := range inbox {
		ctx.Send(f.next, nil, m.Words)
	}
}

// replayRounds times Cluster.Round on a null-handler cluster of the
// workload's shape at its mean load: active machines exchanging msgs
// messages of words words every round.
func replayRounds(c counts) (nsPerRound, allocsPerRound float64) {
	const rounds, warm = 2000, 64
	active := int(math.Round(float64(c.SumActive) / float64(c.Rounds)))
	msgs := int(math.Round(float64(c.Messages) / float64(c.Rounds)))
	words := int(math.Round(float64(c.Words) / float64(c.Messages)))
	active, msgs, words = max(1, min(active, c.Machines)), max(1, msgs), max(1, words)
	cl := mpc.NewCluster(mpc.Config{Machines: c.Machines, MemWords: c.MemWords, Backend: mpc.BackendParallel, Workers: benchWorkers})
	defer cl.Close()
	for i := 0; i < c.Machines; i++ {
		cl.SetMachine(i, forwarder{next: (i + active) % c.Machines})
	}
	for j := 0; j < msgs; j++ {
		cl.Send(mpc.Message{From: -1, To: j % active, Words: words})
	}
	for r := 0; r < warm; r++ {
		cl.Round()
	}
	m0 := mallocs()
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		cl.Round()
	}
	ns := float64(time.Since(t0).Nanoseconds())
	return ns / rounds, float64(mallocs()-m0) / rounds
}

// kernelChain is a link's broadcast descriptor chain: reroot the guest,
// splice it in, shift the host's tail.
var kernelChain = []etour.Shift{
	{Kind: etour.ShiftReroot, Comp: 7, NewComp: 7, A: 4096, B: 1777},
	{Kind: etour.ShiftLinkGuest, Comp: 7, NewComp: 9, A: 900},
	{Kind: etour.ShiftLinkHost, Comp: 9, NewComp: 9, A: 900, B: 4096},
}

// kernelShiftApply times etour.Shift.Apply per tour position.
func kernelShiftApply() float64 {
	const n, reps = 4096, 64
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for p := 1; p <= n; p++ {
			q := p
			for _, sh := range kernelChain {
				q = sh.Apply(q)
			}
			kernelSink += q
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / (n * reps * float64(len(kernelChain)))
}

// kernelApplyShifts times treedp.Rec.ApplyShifts per weight record.
func kernelApplyShifts() float64 {
	const n, reps = 4096, 64
	recs := make([]treedp.Rec, n)
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for i := range recs {
			recs[i] = treedp.Rec{Anchor: i + 1, Comp: 7, W: 1}
			recs[i].ApplyShifts(kernelChain)
		}
	}
	kernelSink += recs[n/2].Anchor
	return float64(time.Since(t0).Nanoseconds()) / (n * reps)
}

// traceWorkload is the traced run of one workload: an untraced reference
// pass through the front door, the traced replay of its windows against
// the core, the sim-backend prefix, and the replays and kernels beside
// them; the per-layer metrics are derived from the four.
func traceWorkload(w *workload, in input, chk checker, genS float64) result {
	res := result{Layers: map[string]value{}}
	fail := func(format string, args ...any) {
		res.Errors = append(res.Errors, fmt.Sprintf(format, args...))
	}
	ref := runRep(w, in, chk)
	res.Attempted, res.Failed = len(in.ops), ref.failed
	if ref.stateErr != nil {
		fail("untraced pass: %v", ref.stateErr)
	}
	if res.Failed > 0 {
		fail("%d of %d ops failed", res.Failed, res.Attempted)
	}
	tr := &tracer{t0: time.Now()}
	t := runTraced(w, in, ref.windows, tr)
	if err := tr.write(w.name, in.seed); err != nil {
		fail("span file: %v", err)
	}

	// The traced replay must be the computation the front door ran.
	rc, tc := ref.Counts, t.counts
	if rc.Rounds != tc.Rounds || rc.Words != tc.Words || rc.Messages != tc.Messages ||
		rc.SumActive != tc.SumActive || rc.Waves != tc.Waves || rc.PeakMemWords != tc.PeakMemWords {
		fail("traced replay diverged from the untraced pass: %+v vs %+v", tc, rc)
	}
	if !sameAnswers(t.answers, ref.answers) {
		fail("traced replay answered differently from the untraced pass")
	}
	simNs, simRounds, simAnswers := simPrefix(w, in, ref.windows)
	prefixRounds := 0
	for _, ws := range ref.windows[:prefixWindows(ref.windows)] {
		prefixRounds += ws.Rounds()
	}
	if simRounds != prefixRounds || len(simAnswers) > len(t.answers) || !sameAnswers(simAnswers, t.answers[:len(simAnswers)]) {
		fail("sim backend diverged from parallel on the prefix: %d vs %d rounds", simRounds, prefixRounds)
	}
	roundNs, roundAllocs := replayRounds(rc)

	ops, rounds := float64(rc.Ops), float64(rc.Rounds)
	e2eNs := ref.WallS * 1e9
	claimsPerCall := t.claimsNs / ops
	itemsRead := float64(t.itemsRead + rc.FlushConflict) // a refused arrival is read again after its flush
	claimsNs := claimsPerCall * itemsRead
	engineNs := rounds * roundNs
	// What ApplyOps spends below its own handlers: the engine and the
	// accounting always; claim reading and wave packing where ApplyOps
	// runs them itself (the open-loop front door runs them outside it).
	children := engineNs + t.memNs
	if !w.open {
		children += claimsNs + t.packNs
	}
	handlersNs := math.Max(0, t.applyNs-children)
	windows := float64(rc.Windows)
	set := func(name string, v float64) { res.Layers[name] = value{Value: v} }

	set("dmpc.front_ns_per_op", (e2eNs-t.applyNs)/ops)
	set("dmpc.front_share", (e2eNs-t.applyNs)/e2eNs)
	set("dmpc.flushes_per_kop", 1000*windows/ops)
	set("dmpc.mean_window_ops", ops/windows)
	set("dmpc.flush_conflict_frac", float64(rc.FlushConflict)/windows)
	set("dmpc.flush_age_frac", float64(rc.FlushAge)/windows)
	set("dmpc.flush_full_frac", float64(rc.FlushFull)/windows)
	warm := append([]float64(nil), warmWindows(ref.windowMs)...)
	set("dmpc.apply_p99_ms", percentile(warm, .99))
	set("dmpc.apply_max_ms", warm[len(warm)-1])

	set("sched.pack_ns_per_op", t.packNs/ops)
	set("sched.pack_allocs_per_op", float64(t.packAllocs)/ops)
	set("sched.pack_share", t.packNs/t.applyNs)
	set("sched.waves_per_kop", 1000*float64(rc.Waves)/ops)
	set("sched.mean_wave_width", float64(rc.WaveOps)/math.Max(1, float64(rc.Waves)))
	set("sched.items_read_per_op", itemsRead/ops)
	set("sched.useful_item_frac", ops/itemsRead)

	set("core.claims_ns_per_call", claimsPerCall)
	set("core.claims_allocs_per_call", t.claimsAllocsPerCall)
	set("core.claims_share", claimsNs/t.applyNs)
	set("core.apply_ns_per_op", t.applyNs/ops)
	set("core.handlers_ns_per_op", handlersNs/ops)
	set("core.handlers_share", handlersNs/t.applyNs)
	set("core.memreport_ns_per_call", t.memNs/math.Max(1, float64(t.memCalls)))
	set("core.memreport_share", t.memNs/t.applyNs)
	set("core.state_words", float64(t.stateWords))

	set("mpc.round_ns_replay", roundNs)
	set("mpc.round_allocs_replay", roundAllocs)
	set("mpc.engine_share", engineNs/t.applyNs)
	set("mpc.msgs_per_round", float64(rc.Messages)/rounds)
	set("mpc.words_per_round", float64(rc.Words)/rounds)
	set("mpc.max_round_words", float64(rc.MaxRoundWords))
	set("mpc.comm_entropy_bits", t.entropy)
	set("mpc.max_pair_words", float64(t.maxPairWords))
	set("mpc.sim_speed_ratio", t.prefixApplyNs/simNs)
	set("mpc.violations_per_kop", 1000*float64(rc.Violations)/ops)

	set("etour.shift_apply_ns_per_pos", kernelShiftApply())
	set("treedp.apply_shifts_ns_per_rec", kernelApplyShifts())
	set("graph.gen_s", genS)
	set("bench.trace_overhead_frac", (t.wallNs-e2eNs)/e2eNs)
	set("bench.replay_overrun_frac", math.Max(0, children-t.applyNs)/t.applyNs)

	if err := withUnits(res.Layers, layerDefs); err != nil {
		fail("%v", err)
	}
	res.Correct = len(res.Errors) == 0
	return res
}

func sameAnswers(a, b graph.Results) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
