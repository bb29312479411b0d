package mpc

import (
	"fmt"
	"math"
	"sort"
)

// StreamStats is the accounting window of one asynchronous op stream —
// the streaming counterpart of MixedStats. Where a mixed window reports
// the amortized rounds per op of one batch, a stream window additionally
// reports what amortization hides: each op's rounds from *arrival* to
// answer, measured on the ingestor's virtual clock (arrivals carry a
// timestamp in rounds; an op admitted at time t and answered by a flush
// window ending at time t' observed latency t'−t, waiting included). The
// p50/p95/p99 of those latencies sit next to RoundsPerOp because the two
// disagree by design: the amortized-optimal batch size k makes early
// arrivals of every chunk wait longest, which is exactly what the
// AutoBatcher's TargetP99Rounds constraint trades against.
//
// A StreamStats is accumulated flush by flush by the facade's Ingestor;
// the zero value is ready to use.
type StreamStats struct {
	Ops     int // ops ingested (updates + queries)
	Updates int
	Queries int

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
	// before entering the forming set; Rejections records each one.
	// Rejected ops are not counted in Ops and record no latency — they
	// never ran.
	Rejected   int         `json:",omitempty"`
	Rejections []Rejection `json:",omitempty"`

	// Tenants breaks the stream down per tenant. nil for single-tenant
	// streams (every op on the zero tenant, no admission policies or
	// weights configured), keeping the accounting bit-identical to
	// pre-tenancy behavior.
	Tenants map[int]*TenantStreamStats `json:",omitempty"`
}

// Rejection is one op refused by a per-tenant admission policy: a typed
// record instead of a silent drop. Index is the op's position in the
// whole pushed stream (admitted and rejected, 0-based); Query reports
// whether the op was a read — a rejected query additionally gets a
// positional Results entry with Answer.Rejected set, so result indexing
// stays aligned with the query stream.
type Rejection struct {
	Index  int
	Tenant int
	At     int64
	Query  bool
}

// TenantStreamStats is one tenant's slice of a stream window: its op
// counts, its admission rejections, its share of the flush windows'
// rounds (each op of a window is charged an equal share of the window's
// rounds, so the tenants' Rounds sum to StreamStats.Rounds), and its own
// arrival-to-answer latency vector.
type TenantStreamStats struct {
	Ops       int
	Updates   int
	Queries   int
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

func percentile(lat []int64, q float64) int64 {
	if math.IsNaN(q) || q <= 0 || q > 100 {
		panic(fmt.Sprintf("mpc: Percentile(%v) outside (0,100]", q))
	}
	n := len(lat)
	if n == 0 {
		return 0
	}
	sorted := make([]int64, n)
	copy(sorted, lat)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(math.Ceil(float64(n) * q / 100))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// P50 returns the median rounds-from-arrival-to-answer.
func (s StreamStats) P50() int64 { return s.Percentile(50) }

// P95 returns the 95th-percentile rounds-from-arrival-to-answer.
func (s StreamStats) P95() int64 { return s.Percentile(95) }

// P99 returns the 99th-percentile rounds-from-arrival-to-answer.
func (s StreamStats) P99() int64 { return s.Percentile(99) }
