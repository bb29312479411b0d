package dmpc

import (
	"fmt"
	"math"
	"slices"

	"dmpc/internal/graph"
	"dmpc/internal/sched"
)

// Arrival is one timestamped op of an asynchronous stream: Op arrives at
// virtual time At (in cluster rounds).
type Arrival = graph.Arrival

// Arrival-schedule generators, re-exported for workload building.
var (
	// ArrivalsNow timestamps a whole op stream at time zero — the
	// schedule under which, with no bound set, only conflict admission
	// cuts an Ingest into windows.
	ArrivalsNow = graph.ArrivalsNow
	// PoissonArrivals timestamps a stream with exponential inter-arrival
	// gaps of a given mean (in rounds).
	PoissonArrivals = graph.PoissonArrivals
	// BurstyArrivals timestamps a stream as bursts of back-to-back ops
	// separated by lulls.
	BurstyArrivals = graph.BurstyArrivals
	// NewArrivalHeap builds the min-heap Ingest consumes arrivals from.
	NewArrivalHeap = graph.NewArrivalHeap
)

// StreamStats is the accounting window of one ingested stream — the
// streaming counterpart of MixedStats. Where a mixed window reports the
// amortized rounds per op of one batch, a stream window additionally
// reports what amortization hides: each op's rounds from *arrival* to
// answer, measured on the Ingestor's virtual clock (an op arriving at
// time t and answered by a flush window ending at time t' observed
// latency t'−t, waiting included). The p50/p95/p99 of those latencies
// sit next to RoundsPerOp because the two can disagree: a window's early
// arrivals wait for its cut, so a looser MaxBatch or MaxAge amortizes
// rounds at the tail's expense. The Ingestor accumulates it flush by flush.
type StreamStats struct {
	Ops int // ops ingested (updates + queries)

	// Flushes counts the Apply windows the stream was cut into, broken
	// down by what triggered each cut: a conflicting arrival refused
	// admission to the forming set (FlushConflict), the set reaching the
	// batch-size bound k (FlushFull), the oldest forming op reaching the
	// age bound (FlushAge), or the end of the stream (FlushTail).
	Flushes       int
	FlushConflict int
	FlushFull     int
	FlushAge      int
	FlushTail     int

	// Rounds is the total cluster rounds the flush windows executed;
	// Makespan is the virtual time the last flush completed at — at least
	// Rounds, larger when arrival gaps left the cluster idle.
	Rounds   int
	Makespan int64

	// Latencies holds every op's rounds-from-arrival-to-answer, in
	// arrival order (updates count: an update's "answer" is its
	// application landing).
	Latencies []int64

	// Windows holds each flush's mixed accounting, in flush order: one
	// entry per flush for the life of the stream, so it grows with the
	// stream (the bench/ harness reads it).
	Windows []MixedStats

	// Rejected counts ops refused by a per-tenant admission policy
	// before entering the forming set. Rejected ops are not counted in
	// Ops and record no latency — they never ran.
	Rejected int `json:",omitempty"`

	// Tenants breaks the stream down per tenant. nil for single-tenant
	// streams (every op on the zero tenant, no admission policies or
	// weights configured), keeping the accounting bit-identical to
	// pre-tenancy behavior.
	Tenants map[int]*TenantStreamStats `json:",omitempty"`
}

// TenantStreamStats is one tenant's slice of a stream window: its
// admitted ops, its admission rejections, its share of the flush windows'
// rounds (each op of a window is charged an equal share of the window's
// rounds, so the tenants' Rounds sum to StreamStats.Rounds), and its own
// arrival-to-answer latency vector.
type TenantStreamStats struct {
	Ops       int
	Rejected  int
	Rounds    float64
	Latencies []int64
}

// Percentile returns the q-th latency percentile of the tenant's ops by
// the same nearest-rank rule as StreamStats.Percentile.
func (t *TenantStreamStats) Percentile(q float64) int64 { return percentile(t.Latencies, q) }

// P99 returns the tenant's 99th-percentile rounds-from-arrival-to-answer.
func (t *TenantStreamStats) P99() int64 { return t.Percentile(99) }

// RoundsPerOp returns the stream's amortized rounds per op: all windows'
// rounds over all ops.
func (s StreamStats) RoundsPerOp() float64 {
	if s.Ops == 0 {
		return 0
	}
	return float64(s.Rounds) / float64(s.Ops)
}

// Percentile returns the q-th latency percentile (0 < q <= 100) by the
// nearest-rank rule on a sorted copy of Latencies: the smallest recorded
// latency with at least ceil(q/100·n) recorded latencies at or below it.
// It returns 0 when no latencies were recorded — an empty stream has no
// tail, and 0 composes with the "latency in rounds" scale (pinned by
// TestPercentileEmpty) — and panics on q outside (0,100] (q=0 or
// negative would silently alias the minimum, q>100 the maximum, and
// NaN whatever the comparison happened to do; all three are caller
// bugs, pinned by TestPercentileBadQ).
func (s StreamStats) Percentile(q float64) int64 { return percentile(s.Latencies, q) }

// P50 returns the median rounds-from-arrival-to-answer.
func (s StreamStats) P50() int64 { return s.Percentile(50) }

// P95 returns the 95th-percentile rounds-from-arrival-to-answer.
func (s StreamStats) P95() int64 { return s.Percentile(95) }

// P99 returns the 99th-percentile rounds-from-arrival-to-answer.
func (s StreamStats) P99() int64 { return s.Percentile(99) }

func percentile(lat []int64, q float64) int64 {
	if math.IsNaN(q) || q <= 0 || q > 100 {
		panic(fmt.Sprintf("dmpc: Percentile(%v) outside (0,100]", q))
	}
	n := len(lat)
	if n == 0 {
		return 0
	}
	sorted := slices.Clone(lat)
	slices.Sort(sorted)
	rank := int(math.Ceil(float64(n) * q / 100))
	return sorted[min(max(rank, 1), n)-1]
}

// IngestorConfig configures NewIngestor. Pipeline is required; zero
// values elsewhere disable the corresponding flush trigger.
type IngestorConfig struct {
	// Pipeline is the structure the stream flows into; its per-op claims
	// oracle drives conflict admission.
	Pipeline Pipeline
	// MaxBatch flushes the forming set when it holds this many ops (the
	// k bound). 0 means unbounded.
	MaxBatch int
	// MaxAge flushes the forming set the moment its oldest op has waited
	// this many rounds (measured on the virtual clock). 0 disables the
	// age bound.
	MaxAge int64
	// Weights, when non-nil, makes the conflict admitter meter each
	// tenant's summed shared-claim cost against a weighted deficit-
	// round-robin share of the per-round word budget S (sched.Fair): a
	// tenant that has spent its share cuts the window early instead of
	// packing the whole forming set, so one noisy tenant cannot fill
	// every wave. It is the one weights setting: a flushed window runs as
	// one first-fit wave in the structure, so there is nothing left to
	// meter below the front door. Over an AlmostMaximalMatching it is a
	// no-op: §6 claims carry no shared cost (endpoint keys only, never
	// Solo), so no tenant ever spends its share.
	Weights map[int]int
	// Admission maps tenant id -> admission policy, consulted before an
	// arrival enters the forming set. Tenants absent from the map are
	// always admitted. A rejected op is surfaced, never silently
	// dropped: it is counted in StreamStats.Rejected (and the tenant's
	// Rejected count), and a rejected query additionally gets a
	// positional Results entry with Rejected set so result indexing
	// stays aligned. nil disables admission control.
	Admission map[int]AdmissionPolicy
}

// AdmissionPolicy decides, per arrival, whether a tenant's op may enter
// the forming set. now is the arrival's virtual-clock timestamp in
// rounds. Policies are consulted in arrival order, so stateful
// implementations (TokenBucket) need no locking.
type AdmissionPolicy interface {
	Admit(now int64) bool
}

// TokenBucket admits ops against a token bucket refilled on the
// virtual clock: Rate tokens per round, holding at most Burst. Each
// admitted op consumes one token; an op arriving with less than one
// token available is rejected. The bucket starts full.
type TokenBucket struct {
	Rate  float64 // tokens added per virtual-clock round
	Burst float64 // bucket capacity (initial fill)

	tokens float64
	last   int64
	inited bool
}

// Admit refills the bucket for the rounds elapsed since the last
// arrival and consumes one token if available.
func (tb *TokenBucket) Admit(now int64) bool {
	if !tb.inited {
		tb.tokens = tb.Burst
		tb.last = now
		tb.inited = true
	}
	tb.tokens += float64(now-tb.last) * tb.Rate
	if tb.tokens > tb.Burst {
		tb.tokens = tb.Burst
	}
	tb.last = now
	if tb.tokens >= 1 {
		tb.tokens--
		return true
	}
	return false
}

// Ingestor is the streaming front door over a Pipeline — the one place
// ops are buffered, cut into chunks and flushed. It consumes timestamped
// arrivals in time order, admits each op into the currently-forming wave
// set while the op's schedule-time claims don't conflict with the set
// (the sched.Admitter rules, i.e. exactly when the scheduled pipeline
// could run them in one wave anyway), and flushes the set through
// Pipeline.Apply when an arrival is refused admission, the set reaches
// the batch-size bound, the oldest forming op reaches the age bound, or
// the stream closes.
//
// Time is virtual, measured in cluster rounds: a flush triggered at time
// t starts at max(t, completion of the previous flush) and completes its
// window's rounds later, and every op in it observed latency completion
// − arrival. Close returns those latencies' percentiles in StreamStats,
// next to the amortized rounds/op the batch view reports.
//
// Conflict admission is the one window-sizing rule:
// a window ends where the next arrival would serialize behind it (on §3
// and §5 a flushed window runs as at most one wave, pinned by
// TestFlushedWindowIsOneWave). The fixed MaxBatch and MaxAge bounds only
// cap how long a window may form.
//
// Answers are positional over the whole stream's queries in arrival
// order, exactly as Apply's are over a slice; end state and answers are
// bit-identical to Apply on the full slice for every arrival schedule
// (pinned by the FuzzArrivalEquivalence harnesses).
type Ingestor struct {
	p      Pipeline
	claims func(graph.Op) sched.Item // p's claims oracle

	maxBatch int
	maxAge   int64

	adm       *sched.Admitter // the forming set's packer
	admission map[int]AdmissionPolicy
	forming   []Op
	formingAt []int64
	formingQI []int // per forming op: global query index, -1 for updates

	now    int64 // virtual clock: completion time of the last flush
	lastAt int64 // latest arrival seen, for monotonicity + tail flush
	closed bool

	qseq int // queries seen, admitted and rejected alike

	// multiTenant gates the per-tenant breakdown: set by configuration
	// (Weights/Admission) or the first nonzero tenant tag. tstats is fed
	// only while it is set; a tag arriving mid-stream seeds tenant 0's
	// record from the stream's own, since every op before it was tenant 0.
	multiTenant bool
	tstats      map[int]*TenantStreamStats

	res   Results
	stats StreamStats
}

// Flush triggers, recorded per flush in StreamStats.
const (
	flushConflict = iota // an arrival's claims were refused admission
	flushFull            // the forming set reached k
	flushAge             // the oldest forming op reached MaxAge
	flushTail            // Close drained the stream
)

// NewIngestor builds the streaming front door. It panics if cfg.Pipeline
// is nil.
func NewIngestor(cfg IngestorConfig) *Ingestor {
	if cfg.Pipeline == nil {
		panic("dmpc: NewIngestor needs a Pipeline")
	}
	p := cfg.Pipeline
	budget := p.Cluster().MemWords()
	var fair *sched.Fair // nil = first-fit
	if len(cfg.Weights) > 0 {
		fair = sched.NewFair(budget, cfg.Weights)
	}
	return &Ingestor{
		p:           p,
		claims:      p.streamClaims(),
		maxBatch:    cfg.MaxBatch,
		maxAge:      cfg.MaxAge,
		adm:         sched.NewAdmitterFair(budget, fair),
		admission:   cfg.Admission,
		multiTenant: len(cfg.Weights) > 0 || len(cfg.Admission) > 0,
		tstats:      make(map[int]*TenantStreamStats),
	}
}

// Now returns the virtual clock: the completion time (in rounds) of the
// last flush.
func (ing *Ingestor) Now() int64 { return ing.now }

// Pending returns the number of ops in the currently-forming set.
func (ing *Ingestor) Pending() int { return len(ing.forming) }

// Stats returns a snapshot of the stream accounting so far; latencies of
// ops still forming appear only after the flush that answers them. The
// per-tenant breakdown appears only on multi-tenant streams (a nonzero
// tenant tag seen, or Weights/Admission configured) — single-tenant
// accounting is bit-identical to pre-tenancy behavior. The snapshot's
// slices are capped and its breakdown is a copy, so later pushes do not
// move it, and appending to it does not write into the stream's records.
func (ing *Ingestor) Stats() StreamStats {
	st := ing.stats
	st.Latencies = slices.Clip(st.Latencies)
	st.Windows = slices.Clip(st.Windows)
	if ing.multiTenant {
		st.Tenants = make(map[int]*TenantStreamStats, len(ing.tstats))
		for t, ts := range ing.tstats {
			c := *ts
			c.Latencies = slices.Clip(c.Latencies)
			st.Tenants[t] = &c
		}
	}
	return st
}

// Push feeds one arrival into the event loop. Arrivals must be pushed in
// time order (use Ingest, which consumes a heap, when the source does
// not sort); Push panics on a time regression or a closed ingestor, and
// on an op naming a vertex outside [0, n), before the op reaches the
// clock, a policy or a claim.
func (ing *Ingestor) Push(a Arrival) {
	if ing.closed {
		panic("dmpc: Push on a closed Ingestor")
	}
	ing.p.checkOp(a.Op)
	if a.At < ing.lastAt {
		panic(fmt.Sprintf("dmpc: Ingestor arrivals out of order (%d after %d)", a.At, ing.lastAt))
	}
	ing.lastAt = a.At
	if a.Op.Tenant != 0 && !ing.multiTenant {
		ing.multiTenant = true
		if ing.stats.Ops > 0 {
			ing.tstats[0] = &TenantStreamStats{
				Ops: ing.stats.Ops, Rounds: float64(ing.stats.Rounds),
				Latencies: slices.Clone(ing.stats.Latencies),
			}
		}
	}
	// Age bound: the oldest forming op must not wait past MaxAge, so the
	// set flushed at that deadline, before this arrival's time. The
	// comparison is inclusive: an op whose age is *exactly* MaxAge at
	// this event triggers the flush, at the deadline itself (pinned by
	// TestIngestorMaxAgeBoundary).
	if len(ing.forming) > 0 && ing.maxAge > 0 && a.At >= ing.formingAt[0]+ing.maxAge {
		ing.flushAt(ing.formingAt[0]+ing.maxAge, flushAge)
	}
	// Per-tenant admission: policy-rejected ops never reach the forming
	// set, but they are surfaced — counted in Rejected, and for queries
	// a positional Results entry with Rejected set (the age
	// flush above still ran: a rejected arrival is an event on the
	// virtual clock like any other).
	if pol := ing.admission[a.Op.Tenant]; pol != nil && !pol.Admit(a.At) {
		ing.stats.Rejected++
		ing.tstat(a.Op.Tenant).Rejected++
		if a.Op.IsQuery() {
			ing.place(ing.qseq, Answer{Rejected: true})
			ing.qseq++
		}
		return
	}
	// Conflict admission: an op whose claims collide with the forming
	// set would serialize behind it inside one window anyway, so cut the
	// window now — the set's ops answer sooner and the newcomer starts a
	// fresh set. Claims are read against the post-last-flush quiescent
	// state (the packer's convention), so they are recomputed after a
	// conflict flush moves that state. With Weights configured the
	// packer additionally meters each tenant's claim cost against its
	// deficit-round-robin share, so a share-exhausted tenant cuts the
	// window exactly like a conflicting one.
	if !ing.adm.Admit(ing.item(a.Op)) {
		ing.flushAt(a.At, flushConflict)
		ing.adm.Admit(ing.item(a.Op)) // fresh set: always admits
	}
	qi := -1
	if a.Op.IsQuery() {
		qi = ing.qseq
		ing.qseq++
	}
	ing.forming = append(ing.forming, a.Op)
	ing.formingAt = append(ing.formingAt, a.At)
	ing.formingQI = append(ing.formingQI, qi)
	if ing.maxBatch > 0 && len(ing.forming) >= ing.maxBatch {
		ing.flushAt(a.At, flushFull)
	}
}

// item reads the op's claims and tags them with its tenant, which only a
// Fair policy reads.
func (ing *Ingestor) item(op graph.Op) sched.Item {
	it := ing.claims(op)
	it.Tenant = op.Tenant
	return it
}

// tstat returns (creating on demand) the tenant's accumulator.
func (ing *Ingestor) tstat(t int) *TenantStreamStats {
	ts := ing.tstats[t]
	if ts == nil {
		ts = &TenantStreamStats{}
		ing.tstats[t] = ts
	}
	return ts
}

// place writes a query answer at its global query index, growing the
// result slice as needed: rejected queries answer immediately while
// earlier admitted queries are still forming, so answers do not always
// land in index order even though they are all *assigned* in arrival
// order.
func (ing *Ingestor) place(qi int, a Answer) {
	for len(ing.res) <= qi {
		ing.res = append(ing.res, Answer{})
	}
	ing.res[qi] = a
}

// Ingest drains a whole arrival schedule through Push in time order (a
// min-heap orders simultaneous arrivals by input position). Call Close
// to flush the tail and collect answers and accounting.
func (ing *Ingestor) Ingest(arrivals []Arrival) {
	h := graph.NewArrivalHeap(arrivals)
	for h.Len() > 0 {
		ing.Push(h.Pop())
	}
}

// Close flushes whatever is still forming (the tail flush), stamps the
// makespan, and returns every query answer in arrival order plus the
// stream accounting. Close is idempotent; the ingestor accepts no pushes
// afterwards.
func (ing *Ingestor) Close() (Results, StreamStats) {
	if !ing.closed {
		ing.flushAt(ing.lastAt, flushTail)
		ing.stats.Makespan = ing.now
		if ing.multiTenant {
			ing.stats.Tenants = ing.tstats
		}
		ing.closed = true
	}
	return ing.res, ing.stats
}

// flushAt runs the forming set through the pipeline as one window,
// starting at the trigger time or at the previous flush's completion,
// whichever is later, and charges each op its arrival-to-answer latency
// and, to its tenant, an equal share of the window's rounds.
func (ing *Ingestor) flushAt(trigger int64, reason int) {
	if len(ing.forming) == 0 {
		return
	}
	start := trigger
	if start < ing.now {
		start = ing.now // the cluster is still busy with the previous flush
	}
	res, st := ing.p.Apply(ing.forming)
	end := start + int64(st.Rounds())
	ing.now = end
	share := float64(st.Rounds()) / float64(len(ing.forming))
	for x, at := range ing.formingAt {
		lat := end - at
		ing.stats.Latencies = append(ing.stats.Latencies, lat)
		if ing.multiTenant {
			ts := ing.tstat(ing.forming[x].Tenant)
			ts.Ops++
			ts.Latencies = append(ts.Latencies, lat)
			ts.Rounds += share
		}
	}
	ing.stats.Ops += st.Ops
	ing.stats.Rounds += st.Rounds()
	ing.stats.Flushes++
	switch reason {
	case flushConflict:
		ing.stats.FlushConflict++
	case flushFull:
		ing.stats.FlushFull++
	case flushAge:
		ing.stats.FlushAge++
	case flushTail:
		ing.stats.FlushTail++
	}
	ing.stats.Windows = append(ing.stats.Windows, st)
	j := 0
	for x := range ing.forming {
		if qi := ing.formingQI[x]; qi >= 0 {
			ing.place(qi, res[j])
			j++
		}
	}
	ing.forming = ing.forming[:0]
	ing.formingAt = ing.formingAt[:0]
	ing.formingQI = ing.formingQI[:0]
	ing.adm.Reset()
}

// Ingest is the one-call streaming entry: it builds an Ingestor over the
// pipeline, drains the arrival schedule through it, and closes it —
// Apply's counterpart for timestamped streams.
func Ingest(p Pipeline, arrivals []Arrival, cfg IngestorConfig) (Results, StreamStats) {
	cfg.Pipeline = p
	ing := NewIngestor(cfg)
	ing.Ingest(arrivals)
	return ing.Close()
}
