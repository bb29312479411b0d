package mpc

import "dmpc/internal/graph"

// TenantCount is one tenant's op census over a mixed window or one of
// its waves: how many of the covered updates/queries belong to the
// tenant. Censuses are how the algorithm layers (which know op tenancy)
// feed the accounting layer (which only counts rounds).
type TenantCount struct {
	Tenant  int
	Updates int
	Queries int
}

// TenantStats is one tenant's slice of a mixed window. Ops/Updates/
// Queries count the tenant's ops; Rounds is the tenant's share of the
// window's rounds, attributed wave by wave: a wave's rounds divide
// among the tenants with ops in it proportional to their op counts, and
// rounds outside any declared wave (scheduling, drains, chained serial
// runs) divide over the whole window's census the same way. Summed over
// tenants, Rounds equals the window total — attribution splits rounds,
// never mints them.
type TenantStats struct {
	Ops     int
	Updates int
	Queries int
	Rounds  float64
}

// eachOp calls f on every op of ops when idx is nil, else on the ops at
// the stream indices in idx, in that order.
func eachOp(ops []graph.Op, idx []int, f func(graph.Op)) {
	if idx == nil {
		for _, op := range ops {
			f(op)
		}
		return
	}
	for _, i := range idx {
		f(ops[i])
	}
}

// tenantCensus counts a (sub)stream's ops per tenant — the ops eachOp
// visits — grouping tenants in first-seen order so the result is
// deterministic for a given op order. Window censuses (WindowCensus) and
// wave censuses (BeginMixedWave) are both built with it. The result is
// never nil: a census of no ops still opens a tenanted (empty) window.
func tenantCensus(ops []graph.Op, idx []int) []TenantCount {
	census := []TenantCount{}
	slot := make(map[int]int, 2)
	eachOp(ops, idx, func(op graph.Op) {
		j, ok := slot[op.Tenant]
		if !ok {
			j = len(census)
			slot[op.Tenant] = j
			census = append(census, TenantCount{Tenant: op.Tenant})
		}
		if op.IsQuery() {
			census[j].Queries++
		} else {
			census[j].Updates++
		}
	})
	return census
}

// WindowCensus is the census ApplyOps opens its window with: nil — no
// per-tenant breakdown, accounting bit-identical to pre-tenancy — unless
// the stream is actually multi-tenant, i.e. some op carries a nonzero
// tenant tag or the structure is configured with tenant weights.
func WindowCensus(ops []graph.Op, weighted bool) []TenantCount {
	for i := 0; !weighted && i < len(ops); i++ {
		weighted = ops[i].Tenant != 0
	}
	if !weighted {
		return nil
	}
	return tenantCensus(ops, nil)
}

// shareWaveRounds folds a closed wave's rounds into the window's
// per-tenant breakdown by wave share.
func (c *Cluster) shareWaveRounds(m *MixedStats, w WaveStats) {
	census := c.waveTenants
	c.waveTenants = c.waveTenants[:0]
	if m.Tenants == nil || len(census) == 0 || w.Rounds == 0 {
		return
	}
	tot := 0
	for _, tc := range census {
		tot += tc.Updates + tc.Queries
	}
	if tot == 0 {
		return
	}
	for _, tc := range census {
		ts := m.Tenants[tc.Tenant]
		ts.Rounds += float64(w.Rounds) * float64(tc.Updates+tc.Queries) / float64(tot)
		m.Tenants[tc.Tenant] = ts
	}
}

// shareLeftoverRounds attributes the window rounds no declared wave
// covered (scheduling, drain, chained serial segments) across the
// window census, keeping the per-tenant Rounds a partition of the
// window total.
func (c *Cluster) shareLeftoverRounds(m *MixedStats) {
	if m.Tenants == nil || m.Ops == 0 {
		return
	}
	waveRounds := 0
	for _, w := range m.Waves {
		waveRounds += w.Rounds
	}
	leftover := m.Rounds() - waveRounds
	if leftover <= 0 {
		return
	}
	for t, ts := range m.Tenants {
		ts.Rounds += float64(leftover) * float64(ts.Ops) / float64(m.Ops)
		m.Tenants[t] = ts
	}
}
