package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"

	"dmpc"
	"dmpc/internal/graph"
	"dmpc/internal/mpc"
)

// counts are the model-level figures of one rep's measured section. The
// backends are deterministic, so every rep of a run must report the
// same counts; the e2e metrics derived from them are the exact ones.
type counts struct {
	Machines, MemWords         int // µ and S of the cluster
	Ops, Windows               int
	Rounds, Words, Messages    int
	SumActive, MaxRoundWords   int
	PeakMemWords, Violations   int
	Waves, WaveOps             int
	FlushConflict, FlushAge    int
	FlushFull, FlushTail       int
	Rejected                   int
	LatP50Rounds, LatP99Rounds float64
}

// rep is one measured pass of a workload over a fresh instance.
type rep struct {
	SetupS     float64
	WallS      float64
	Allocs     uint64
	HeapLiveMB float64
	Counts     counts

	windowMs []float64        // per-window Apply (or flush-triggering Push) time
	windows  []mpc.MixedStats // per-window accounting, the traced run's replay script
	answers  graph.Results    // every query's answer, in stream order
	failed   int              // wrong answers + refusals + ops lost to a panic
	stateErr error            // end-state oracle verdict
}

// setUp builds a fresh instance and preloads it: the timed set-up of one
// rep. Preload windows use the workload's k, like the measured stream.
// The instance's close additionally waits for the backend's workers to
// exit: Cluster.Close only signals them, and a worker still unwinding
// pins the whole dead cluster in the next rep's heap baseline.
func setUp(w *workload, in input, build func(input, mpc.BackendKind) instance, b mpc.BackendKind) (instance, float64) {
	goroutines := runtime.NumGoroutine()
	t0 := time.Now()
	inst := build(in, b)
	for _, chunk := range graph.SplitOps(in.preload, w.k) {
		inst.apply(chunk)
	}
	setup := time.Since(t0).Seconds()
	closeCluster := inst.close
	inst.close = func() {
		closeCluster()
		for wait := time.Now(); runtime.NumGoroutine() > goroutines && time.Since(wait) < time.Second; {
			time.Sleep(100 * time.Microsecond)
		}
	}
	return inst, setup
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// heapLive is the heap in use after a forced collection.
func heapLive() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// clusterMark is the lifetime accounting at the start of the measured
// section, so that set-up traffic is not billed to it.
type clusterMark struct{ rounds, words, messages, violations int }

func mark(cl *mpc.Cluster) clusterMark {
	st := cl.Stats()
	return clusterMark{st.Rounds, st.Words, st.Messages, st.Violations}
}

// fold accumulates one window's accounting into the counts.
func (c *counts) fold(st mpc.MixedStats) {
	c.Windows++
	c.SumActive += st.Updates.SumActive + st.Queries.SumActive
	c.MaxRoundWords = max(c.MaxRoundWords, st.Updates.MaxWords, st.Queries.MaxWords)
	c.Waves += len(st.Waves)
	for _, wv := range st.Waves {
		c.WaveOps += wv.Updates + wv.Queries
	}
}

func (c *counts) close(cl *mpc.Cluster, m clusterMark) {
	st := cl.Stats()
	c.Rounds = st.Rounds - m.rounds
	c.Words = st.Words - m.words
	c.Messages = st.Messages - m.messages
	c.Violations = st.Violations - m.violations
	c.PeakMemWords = st.PeakMemWords
	c.Machines, c.MemWords = cl.Machines(), cl.MemWords()
}

// runRep measures one untraced pass through the public front door. The
// timed section covers exactly the Apply (or Ingest) calls: generation,
// set-up, MemStats reads and the oracle checks sit outside it.
func runRep(w *workload, in input, chk checker) (r rep) {
	// What the harness itself holds (the load, earlier reps' records) is
	// not the program's live heap.
	base := heapLive()
	inst, setup := setUp(w, in, w.facade, mpc.BackendParallel)
	defer inst.close()
	r.SetupS = setup
	r.Counts.Ops = len(in.ops)
	r.answers = make(graph.Results, 0, len(in.ops))
	m := mark(inst.cl)
	// A panic in the program under test loses the rest of the stream;
	// the ops that never completed count as failed.
	defer func() {
		if p := recover(); p != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: recovered panic: %v\n", w.name, p)
			r.failed = len(in.ops)
			r.stateErr = fmt.Errorf("panic: %v", p)
		}
	}()
	var lat histogram
	if w.open {
		lat = r.runOpen(inst, in)
	} else {
		lat = r.runClosed(w, inst, in)
	}
	r.Counts.LatP50Rounds = lat.quantile(.50, len(r.windows))
	r.Counts.LatP99Rounds = lat.quantile(.99, len(r.windows))
	r.HeapLiveMB = float64(heapLive()-base) / (1 << 20)
	r.Counts.close(inst.cl, m)
	r.failed = r.Counts.Rejected + chk.answers(r.answers)
	r.stateErr = chk.state(inst)
	return r
}

// runClosed is the closed loop: the next window is submitted when the
// previous one returns. It returns the ops' latencies in rounds.
func (r *rep) runClosed(w *workload, inst instance, in input) histogram {
	chunks := graph.SplitOps(in.ops, w.k)
	r.windowMs = make([]float64, 0, len(chunks))
	r.windows = make([]mpc.MixedStats, 0, len(chunks))
	lat := make(histogram)
	before := mallocs()
	start := time.Now()
	for _, chunk := range chunks {
		t0 := time.Now()
		res, st := inst.apply(chunk)
		r.windowMs = append(r.windowMs, float64(time.Since(t0).Nanoseconds())/1e6)
		r.answers = append(r.answers, res...)
		r.windows = append(r.windows, st)
	}
	r.WallS = time.Since(start).Seconds()
	r.Allocs = mallocs() - before
	for _, st := range r.windows {
		r.Counts.fold(st)
		if st.Ops == w.k {
			r.Counts.FlushFull++
		} else {
			r.Counts.FlushTail++
		}
		// Every op of a window arrives when the window is submitted and
		// is answered when it completes.
		lat[int64(st.Rounds())] += st.Ops
	}
	return lat
}

// runOpen is the open loop: arrivals are pushed on their schedule's
// virtual clock whatever the cluster's backlog. It is dmpc.Ingest spelt
// out (heap, Push, Close) so that the pushes that flushed a window can be
// timed from outside. It returns the ops' latencies in rounds.
func (r *rep) runOpen(inst instance, in input) histogram {
	r.windowMs = make([]float64, 0, len(in.ops)/4)
	before := mallocs()
	start := time.Now()
	ing := dmpc.NewIngestor(dmpc.IngestorConfig{
		Pipeline: inst.pipeline,
		MaxBatch: ammIngestMaxBatch,
		MaxAge:   ammIngestMaxAge,
		Weights:  ammWeights,
	})
	h := dmpc.NewArrivalHeap(in.arrivals)
	t0 := start
	for h.Len() > 0 {
		pending := ing.Pending()
		ing.Push(h.Pop())
		t1 := time.Now()
		if ing.Pending() != pending+1 {
			r.windowMs = append(r.windowMs, float64(t1.Sub(t0).Nanoseconds())/1e6)
		}
		t0 = t1
	}
	res, st := ing.Close()
	r.WallS = time.Since(start).Seconds()
	r.Allocs = mallocs() - before
	r.answers = res
	r.windows = st.Windows
	for _, ws := range st.Windows {
		r.Counts.fold(ws)
	}
	r.Counts.FlushConflict = st.FlushConflict
	r.Counts.FlushAge = st.FlushAge
	r.Counts.FlushFull = st.FlushFull
	r.Counts.FlushTail = st.FlushTail
	r.Counts.Rejected = st.Rejected + (len(in.ops) - st.Ops)
	lat := make(histogram)
	for _, l := range st.Latencies {
		lat[l]++
	}
	return lat
}

// histogram counts ops per whole-round latency.
type histogram map[int64]int

// quantile estimates a latency quantile from whole-round latencies that
// arrive in lumps: a closed-loop window answers all its ops in one round,
// and a window is a few waves of five or six rounds each, so cc-uniform's
// windows take 11, 17 or 22 rounds and a plain p99 flips between lumps
// from one seed to the next. Two steps make it continuous. The inverse
// CDF reads the counts as grouped data — an op answered in round L
// completed somewhere in (L-1, L] — and interpolates inside each bin; the
// estimate is that inverse CDF averaged over q ± 1.96·sqrt(q(1-q)/samples),
// the 95 % sampling interval of the quantile level given the independent
// samples (windows) behind the ops. With many samples the band closes and
// the estimate is the plain quantile.
func (h histogram) quantile(q float64, samples int) float64 {
	keys := make([]int64, 0, len(h))
	total := 0
	for l, c := range h {
		keys = append(keys, l)
		total += c
	}
	if total == 0 {
		return 0
	}
	slices.Sort(keys)
	inverse := func(u float64) float64 {
		rank := math.Min(math.Max(u, 0), 1) * float64(total)
		cum := 0.0
		for _, l := range keys {
			c := float64(h[l])
			if cum+c >= rank {
				return float64(l) - 1 + (rank-cum)/c
			}
			cum += c
		}
		return float64(keys[len(keys)-1])
	}
	const steps = 64
	half := 1.96 * math.Sqrt(q*(1-q)/float64(samples))
	sum := 0.0
	for i := 0; i < steps; i++ {
		sum += inverse(q - half + 2*half*(float64(i)+.5)/steps)
	}
	return sum / steps
}

// percentile is the nearest-rank percentile of xs (sorted in place).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// warmWindows drops the first 5 % of a rep's windows, the warm-up the
// latency pools exclude.
func warmWindows(ms []float64) []float64 {
	return ms[len(ms)/20:]
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Min and Max are the extremes over reps, for wall-clock metrics
	// reported as a median of reps.
	Min *float64 `json:"min,omitempty"`
	Max *float64 `json:"max,omitempty"`
}

// result is one workload's outcome, the unit of the -out file.
type result struct {
	E2E       map[string]value     `json:"e2e,omitempty"`
	Layers    map[string]value     `json:"layers,omitempty"`
	Reps      []map[string]float64 `json:"reps"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Correct   bool                 `json:"correct"`
	Errors    []string             `json:"errors,omitempty"`
}

// wallClock lists the per-rep wall-clock figures of a rep, the values
// whose median a run reports and whose spread -compare reads.
func (r *rep) wallClock() map[string]float64 {
	ops := float64(r.Counts.Ops)
	return map[string]float64{
		"ops_per_s":     ops / r.WallS,
		"apply_p50_ms":  percentile(append([]float64(nil), warmWindows(r.windowMs)...), .50),
		"allocs_per_op": float64(r.Allocs) / ops,
		"heap_live_mb":  r.HeapLiveMB,
		"setup_s":       r.SetupS,
	}
}

// reduce folds a run's reps into the end-to-end metrics. setups carries
// every set-up sample of the run (one per rep plus the extra ones).
func reduce(reps []rep, setups []float64) result {
	res := result{E2E: map[string]value{}}
	c := reps[0].Counts
	perRep := map[string][]float64{}
	var pooled []float64
	for i := range reps {
		r := &reps[i]
		res.Attempted += c.Ops
		res.Failed += r.failed
		if r.stateErr != nil {
			res.Errors = append(res.Errors, fmt.Sprintf("rep %d: %v", i, r.stateErr))
		}
		if r.Counts != c {
			res.Errors = append(res.Errors, fmt.Sprintf("rep %d: counts differ from rep 0: %+v vs %+v", i, r.Counts, c))
		}
		wc := r.wallClock()
		res.Reps = append(res.Reps, wc)
		for k, v := range wc {
			perRep[k] = append(perRep[k], v)
		}
		pooled = append(pooled, warmWindows(r.windowMs)...)
	}
	perRep["setup_s"] = setups
	for k, vs := range perRep {
		lo, hi := slices.Min(vs), slices.Max(vs)
		res.E2E[k] = value{Value: median(vs), Min: &lo, Max: &hi}
	}
	// Window latencies pool over reps; the per-rep medians above only
	// give the spread.
	p50 := res.E2E["apply_p50_ms"]
	p50.Value = percentile(pooled, .50)
	res.E2E["apply_p50_ms"] = p50
	ops, rounds := float64(c.Ops), float64(c.Rounds)
	res.E2E["lat_p50_rounds"] = value{Value: c.LatP50Rounds}
	res.E2E["lat_p99_rounds"] = value{Value: c.LatP99Rounds}
	res.E2E["rounds_per_op"] = value{Value: rounds / ops}
	res.E2E["words_per_op"] = value{Value: float64(c.Words) / ops}
	res.E2E["active_per_round"] = value{Value: float64(c.SumActive) / rounds}
	res.E2E["peak_mem_over_S"] = value{Value: float64(c.PeakMemWords) / float64(c.MemWords)}
	if res.Failed > 0 {
		res.Errors = append(res.Errors, fmt.Sprintf("%d of %d ops failed", res.Failed, res.Attempted))
	}
	res.Correct = len(res.Errors) == 0
	return res
}
