package dmpc

import (
	"math"
	"slices"
)

// AutoBatcher is the adaptive batch-sizing policy: the k-controller of the
// Ingestor it is handed to (IngestorConfig.Auto). It buffers nothing and
// applies nothing — the Ingestor cuts the stream at K() ops, flushes the
// chunk through Pipeline.Apply, and feeds the window back as one
// observation — and grows or shrinks k online against the measured
// amortized rounds per op, seeking the knee of the k-vs-rounds curve
// without the caller having to pick k. The measurement is the window's
// rounds over its ops — both halves — so k is sized for the workload
// actually flowing, not for its write side alone, and the word cap
// watches the peak round of either half. (On a query-free stream the
// window is its update half, so the search sees exactly the rounds per
// update.) Its state is O(probe window): the in-progress probe window and
// a handful of counters, however long the stream runs.
//
// Policy (deterministic, no randomness):
//
//   - Warm up first: the opening three full batches (one probe window) are
//     applied but excluded from the search. A structure that starts empty processes
//     its first updates unrepresentatively cheaply (every insert lands in a
//     tiny component), and letting that transient set the baseline poisons
//     every later comparison.
//   - Probe upward: evaluate each k over a window of three full
//     batches — the windowed amortized rounds/update is the measurement, so
//     one unlucky batch cannot end the search — and double k as long as the
//     window is not worse than the *best window seen so far* by more than
//     5% (relative). Amortized rounds are non-increasing in k by
//     construction (more updates share each wave's rounds), but successive
//     windows measure different stream segments of a drifting workload, so
//     demanding a measured improvement per doubling would settle spuriously
//     at the start; "not measurably worse than the best" tracks the true
//     curve through segment noise.
//   - Settle at the knee, on two strikes: a single bad window re-measures
//     at the same k instead of ending the search; two consecutive windows
//     worse than the best by more than that margin mark genuine saturation, and
//     k steps back to the best-measured value and holds. MaxK bounds the
//     search when the curve never worsens.
//   - Respect the word cap: a batch whose MaxWords exceeds the cap halves
//     k immediately (mid-window, discarding the window), whatever the
//     round trend said — wider waves mean more concurrent broadcasts per
//     round, and the communication budget binds first. MaxWords counts
//     cluster-wide words per round, so the cap is µ·S (Machines ×
//     MemWords) of the Ingestor's pipeline, the model's aggregate
//     per-round capacity; a pipeline without a cluster has no cap.
//   - Re-probe after the knee settles: every 32 settled full
//     batches the search re-opens so long-lived streams track workload
//     drift — the settled k halves one step (so a knee that moved *down*
//     is reachable, not just one that moved up), the stale best-window
//     baseline is discarded (it described the old workload, exactly the
//     poison the warmup rule guards against at startup), and the
//     grow-unless-worse climb runs again from there. On a stable workload
//     the re-probe costs a few windows and settles back at the same knee;
//     under drift, repeated periods walk k to the new knee in either
//     direction. A search settled by the word cap never re-probes: growing
//     back into the cap would periodically violate the budget on purpose.
//   - Partial chunks (cut by a conflict, the age bound or the end of the
//     stream rather than by reaching k) never drive adaptation: their
//     amortized figure is not comparable against full batches.
//   - Respect the tail bound, when TargetP99Rounds is set: amortized
//     rounds/op is non-increasing in k, but every op of a chunk waits
//     the chunk's whole window under back-to-back arrivals, so the
//     amortized-optimal k is exactly wrong for tail latency. Each probe
//     window's p99 is computed under that worst case (every op of a
//     chunk observes the chunk's total rounds); a window violating the
//     target halves k and lowers MaxK to the new k — a hard ceiling the
//     climb and every later re-probe stay under — so the search
//     minimizes rounds/op *subject to* the tail bound and settles on a
//     smaller k than the unconstrained search whenever the bound bites.
//     If even k = 1 violates the bound, the search settles there (the
//     bound is unachievable; the batcher still minimizes what it can).
type AutoBatcher struct {
	capWords     int
	minK         int
	maxK         int
	probeBatches int
	reprobeEvery int
	targetP99    int

	k        int
	dir      int     // +1 probing upward, 0 settled at the knee
	bestK    int     // k of the best window so far, the settle target
	bestA    float64 // best windowed amortized rounds/update (<0: none yet)
	strikes  int     // consecutive windows measurably worse than bestA
	warmup   int     // full batches still to discard before the search starts
	settled  int     // full batches applied since the knee settled
	capBound bool    // settled by the word cap: never re-probe upward

	tailInfeasible bool // tail bound violated at minK: settled for good
	tailViolations int  // probe windows whose p99 exceeded TargetP99Rounds

	// accumulators of the in-progress probe window at the current k
	winRounds, winUpdates, winBatches int
	winSamples                        []chunkSample // per-chunk (rounds, units), for the tail bound
}

// AutoBatcherConfig configures NewAutoBatcher: the two knobs callers
// actually turn. Everything else about the policy is fixed (see the
// constants below), and the word cap is the budget of the pipeline the
// Ingestor runs on.
type AutoBatcherConfig struct {
	// MaxK (default 1024) bounds the knee search from above.
	MaxK int
	// TargetP99Rounds, when positive, constrains the knee search to
	// chunk sizes whose worst-case 99th-percentile rounds-from-arrival
	// stays at or under this bound (see the policy comment): minimize
	// rounds/op subject to the tail bound. 0 disables the constraint.
	TargetP99Rounds int
}

// The policy's fixed parameters — the values every caller ran with.
const (
	autoStartK       = 8    // initial chunk size
	autoMinK         = 1    // floor of the search
	autoMargin       = 0.05 // relative worsening that counts as a strike
	autoProbeBatches = 3    // full batches per probe window, and per warmup
	autoReprobeEvery = 32   // settled full batches between re-probes
)

// chunkSample is one full chunk's contribution to a probe window's tail
// estimate: units ops that each observed the chunk's rounds end to end.
type chunkSample struct{ rounds, units int }

// NewAutoBatcher builds the controller. Its word cap starts disabled;
// NewIngestor sets it from the pipeline's cluster.
func NewAutoBatcher(cfg AutoBatcherConfig) *AutoBatcher {
	ab := &AutoBatcher{
		minK:         autoMinK,
		maxK:         cfg.MaxK,
		probeBatches: autoProbeBatches,
		warmup:       autoProbeBatches,
		reprobeEvery: autoReprobeEvery,
		targetP99:    max(cfg.TargetP99Rounds, 0),
		dir:          +1,
		bestA:        -1,
	}
	if ab.maxK < 1 {
		ab.maxK = 1024
	}
	ab.k = ab.clamp(autoStartK)
	ab.bestK = ab.k
	return ab
}

func (ab *AutoBatcher) clamp(k int) int {
	if k < ab.minK {
		return ab.minK
	}
	if k > ab.maxK {
		return ab.maxK
	}
	return k
}

// K returns the chunk size the next chunk will be cut at.
func (ab *AutoBatcher) K() int { return ab.k }

// TailViolations counts the completed probe windows whose worst-case p99
// rounds exceeded TargetP99Rounds. A nonzero count with a settled small k
// means the bound actively shaped the search; see TailInfeasible for the
// case where even the smallest k cannot meet it.
func (ab *AutoBatcher) TailViolations() int { return ab.tailViolations }

// TailInfeasible reports that a probe window violated TargetP99Rounds at
// the smallest k: the bound is unachievable for this workload, and the
// search has settled terminally there (no re-probe will re-open it) rather
// than looping halve/climb around a violation it cannot shed.
func (ab *AutoBatcher) TailInfeasible() bool { return ab.tailInfeasible }

// observe is the controller's one input: the window of a chunk the
// Ingestor just flushed, and whether the chunk was cut by reaching K. Only
// full chunks feed the search.
func (ab *AutoBatcher) observe(st MixedStats, full bool) {
	if full {
		ab.adapt(st.Rounds(), st.Ops, max(st.Updates.MaxWords, st.Queries.MaxWords))
	}
}

// adapt folds one full chunk (rounds over units ops, with the peak
// round's words) into the current probe window and, when the window
// is complete, runs the knee-search step on the windowed amortized
// rounds per unit.
func (ab *AutoBatcher) adapt(rounds, units, maxWords int) {
	if ab.capWords > 0 && maxWords > ab.capWords {
		// The S cap binds before the round curve does: back off
		// immediately (discarding the in-progress window), stop probing
		// upward and never re-probe — growth from here would walk back
		// into the cap by design.
		ab.k = ab.clamp(ab.k / 2)
		ab.bestK = ab.k
		ab.dir = 0
		ab.capBound = true
		ab.winRounds, ab.winUpdates, ab.winBatches = 0, 0, 0
		ab.winSamples = ab.winSamples[:0]
		return
	}
	if ab.dir == 0 {
		if ab.reprobeEvery == 0 || ab.capBound || ab.tailInfeasible {
			// Settled for good: nothing left to measure. The tail-
			// infeasible case matters here — re-opening the climb would
			// double k off minK, violate the bound again, and halve back,
			// looping the violation every re-probe period on purpose.
			return
		}
		ab.settled++
		if ab.settled < ab.reprobeEvery {
			return
		}
		// Periodic re-probe: step one notch below the settled knee,
		// discard the stale baseline, and run the climb again so the
		// search can follow workload drift in either direction.
		ab.settled = 0
		ab.k = ab.clamp(ab.k / 2)
		ab.bestK, ab.bestA = ab.k, -1
		ab.strikes = 0
		ab.dir = +1
		return
	}
	if ab.warmup > 0 {
		ab.warmup--
		return // empty-structure transient: apply, don't measure
	}
	ab.winRounds += rounds
	ab.winUpdates += units
	ab.winSamples = append(ab.winSamples, chunkSample{rounds: rounds, units: units})
	ab.winBatches++
	if ab.winBatches < ab.probeBatches {
		return // window still filling
	}
	a := float64(ab.winRounds) / float64(ab.winUpdates)
	tailBad := ab.targetP99 > 0 && ab.windowP99() > int64(ab.targetP99)
	ab.winRounds, ab.winUpdates, ab.winBatches = 0, 0, 0
	ab.winSamples = ab.winSamples[:0]
	if tailBad {
		// The tail bound binds at this k, whatever the amortized trend
		// said: halve k and make the new k a hard ceiling, so neither
		// the climb nor a later re-probe returns above it. A best window
		// measured beyond the ceiling described an infeasible k — drop
		// it. At minK there is nothing left to shed: settle terminally
		// (the bound is unachievable — TailInfeasible reports it) rather
		// than halving maxK below minK or letting a re-probe climb back
		// into the violation.
		ab.tailViolations++
		if ab.k <= ab.minK {
			ab.k = ab.minK
			ab.bestK = ab.minK
			ab.dir = 0
			ab.tailInfeasible = true
			return
		}
		ab.maxK = ab.clamp(ab.k / 2)
		ab.k = ab.maxK
		if ab.bestK > ab.maxK {
			ab.bestK, ab.bestA = ab.k, -1
		}
		ab.strikes = 0
		return
	}
	if ab.bestA < 0 || a <= ab.bestA*(1+autoMargin) {
		// First window, or this k is not measurably worse than the best
		// seen: record it if it is the new best, and keep growing unless
		// the clamp already stops us (then settle where we are).
		ab.strikes = 0
		if ab.bestA < 0 || a < ab.bestA {
			ab.bestA, ab.bestK = a, ab.k
		}
		if ab.k == ab.maxK {
			ab.dir = 0
			return
		}
		ab.k = ab.clamp(ab.k * 2)
		return
	}
	// Measurably worse than the best window. One strike re-measures at the
	// same k (segment noise); the second in a row is genuine saturation —
	// settle at the best-measured k.
	ab.strikes++
	if ab.strikes >= 2 {
		ab.k = ab.bestK
		ab.dir = 0
	}
}

// windowP99 estimates the in-progress probe window's worst-case
// 99th-percentile rounds-from-arrival: under back-to-back arrivals every
// op of a chunk waits the chunk's whole window, so each recorded chunk
// contributes units observations of its total rounds, and the weighted
// nearest-rank p99 over them is the tail the TargetP99Rounds constraint
// gates. It sorts the window's samples in place; adapt discards them next.
func (ab *AutoBatcher) windowP99() int64 {
	total := 0
	for _, s := range ab.winSamples {
		total += s.units
	}
	if total == 0 {
		return 0
	}
	samples := ab.winSamples
	slices.SortFunc(samples, func(a, b chunkSample) int { return a.rounds - b.rounds })
	rank := int(math.Ceil(0.99 * float64(total)))
	cum := 0
	for _, s := range samples {
		cum += s.units
		if cum >= rank {
			return int64(s.rounds)
		}
	}
	return int64(samples[len(samples)-1].rounds)
}
