package mpc

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

// TestMixedTenantAttribution pins the per-tenant rounds rule on a
// hand-built window: a wave's rounds split across its census by op
// count, rounds outside any wave split across the window census, and
// the tenant shares always sum to the window total (attribution splits
// rounds, never mints them).
func TestMixedTenantAttribution(t *testing.T) {
	c := NewCluster(Config{Machines: 2, MemWords: 64})
	c.BeginMixed(3, 1, []TenantCount{
		{Tenant: 0, Updates: 1},
		{Tenant: 1, Updates: 2, Queries: 1},
	})
	// The wave takes its own census from its ops: t0 one update, t1 one
	// update and one read.
	ops := waveOps(3, 1)
	ops[1].Tenant, ops[2].Tenant, ops[3].Tenant = 1, 1, 1
	c.BeginMixedWave(ops, []int{0, 1, 3})
	c.Round()
	c.Round()
	c.EndMixedWave()
	c.Round() // outside any wave: leftover, split over the window census
	m := c.EndMixed()
	if m.Rounds() != 3 {
		t.Fatalf("window rounds = %d, want 3", m.Rounds())
	}
	if len(m.Tenants) != 2 {
		t.Fatalf("tenants = %v, want 2 entries", m.Tenants)
	}
	const eps = 1e-9
	// Wave: 2 rounds over 3 ops (t0 has 1, t1 has 2); leftover: 1 round
	// over the 4-op window census (t0 has 1, t1 has 3).
	want0 := 2.0*1/3 + 1.0*1/4
	want1 := 2.0*2/3 + 1.0*3/4
	if got := m.Tenants[0]; math.Abs(got.Rounds-want0) > eps || got.Ops != 1 || got.Updates != 1 {
		t.Fatalf("tenant 0 = %+v, want Rounds %v", got, want0)
	}
	if got := m.Tenants[1]; math.Abs(got.Rounds-want1) > eps || got.Ops != 3 || got.Queries != 1 {
		t.Fatalf("tenant 1 = %+v, want Rounds %v", got, want1)
	}
	sum := m.Tenants[0].Rounds + m.Tenants[1].Rounds
	if math.Abs(sum-float64(m.Rounds())) > eps {
		t.Fatalf("tenant rounds sum %v != window rounds %d", sum, m.Rounds())
	}
	// A window without a census stays tenant-free: bit-identical
	// accounting for single-tenant runs.
	c.BeginMixed(1, 0, nil)
	c.BeginMixedWave(waveOps(1, 0), nil)
	c.Round()
	c.EndMixedWave()
	if m := c.EndMixed(); m.Tenants != nil {
		t.Fatalf("censusless window grew Tenants = %v", m.Tenants)
	}
}
