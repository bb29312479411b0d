package dmpc

import (
	"math"
	"testing"
)

// TestStreamStatsPercentile pins the nearest-rank rule and the derived
// percentiles against hand-computed values.
func TestStreamStatsPercentile(t *testing.T) {
	var s StreamStats
	if s.P99() != 0 || s.P50() != 0 {
		t.Fatal("empty stream reports nonzero percentiles")
	}
	s.Latencies = []int64{9, 1, 5} // unsorted on purpose
	if got := s.P50(); got != 5 {
		t.Fatalf("P50 = %d, want 5", got)
	}
	if got := s.Percentile(100); got != 9 {
		t.Fatalf("P100 = %d, want 9", got)
	}
	if got := s.Percentile(1); got != 1 {
		t.Fatalf("P1 = %d, want 1", got)
	}
	// 100 latencies 1..100: nearest-rank p99 is the 99th value.
	s.Latencies = s.Latencies[:0]
	for i := 1; i <= 100; i++ {
		s.Latencies = append(s.Latencies, int64(i))
	}
	if got := s.P99(); got != 99 {
		t.Fatalf("P99 over 1..100 = %d, want 99", got)
	}
	if got := s.P95(); got != 95 {
		t.Fatalf("P95 over 1..100 = %d, want 95", got)
	}
	if got := s.P50(); got != 50 {
		t.Fatalf("P50 over 1..100 = %d, want 50", got)
	}
	s.Ops = 50
	s.Rounds = 100
	if got := s.RoundsPerOp(); got != 2 {
		t.Fatalf("RoundsPerOp = %v, want 2", got)
	}
}

// TestPercentileEmpty pins the empty-vector behavior: every percentile
// of a stream (or tenant slice) with no recorded latencies is 0, never
// an index panic — an Ingestor that admitted nothing still reports.
func TestPercentileEmpty(t *testing.T) {
	var s StreamStats
	for _, q := range []float64{0.001, 1, 50, 99, 100} {
		if got := s.Percentile(q); got != 0 {
			t.Fatalf("empty Percentile(%v) = %d, want 0", q, got)
		}
	}
	ts := &TenantStreamStats{}
	if got := ts.P99(); got != 0 {
		t.Fatalf("empty tenant P99 = %d, want 0", got)
	}
}

// TestPercentileBadQ pins the q guard: q outside (0,100] — including
// 0, negatives, >100 and NaN — panics instead of silently aliasing the
// minimum or maximum rank.
func TestPercentileBadQ(t *testing.T) {
	s := StreamStats{Latencies: []int64{3, 1, 2}}
	for _, q := range []float64{0, -1, 100.0001, 200, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Percentile(%v) did not panic", q)
				}
			}()
			s.Percentile(q)
		}()
	}
}
