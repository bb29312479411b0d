package main

import (
	"slices"

	"dmpc"
)

// --- multi-tenant streams: noisy-neighbor isolation -----------------------

// tenantRow is one algorithm's adversarial-mix measurement: a read-mostly
// victim tenant shares the ingestion front door with a write-storm tenant,
// and the victim's p99 rounds-from-arrival is measured solo, shared with
// no controls (unfair), and shared under the front door's fair forming
// sets plus token-bucket admission on the storm (fair). The weights are
// the Ingestor's alone: the structure below packs first-fit.
// ZeroTenantIdentical is the compatibility control: the same shared
// stream, tenant-tagged but with no weights or admission, must answer and
// account identically to the untagged run.
type tenantRow struct {
	Name                string  `json:"name"`
	VictimOps           int     `json:"victim_ops"`
	NoisyOps            int     `json:"noisy_ops"`
	VictimSoloP99       int64   `json:"victim_solo_p99_rounds"`
	VictimUnfairP99     int64   `json:"victim_unfair_p99_rounds"`
	VictimFairP99       int64   `json:"victim_fair_p99_rounds"`
	NoisyRejected       int     `json:"noisy_rejected"`
	VictimFairRounds    float64 `json:"victim_fair_rounds_share"`
	NoisyFairRounds     float64 `json:"noisy_fair_rounds_share"`
	ZeroTenantIdentical bool    `json:"zero_tenant_identical"`
}

// tenantStreams builds the deterministic adversarial mix: one victim
// connectivity query every 4 rounds on the low quarter of the vertex
// range, and a 12-write storm riding each query on the disjoint high
// range (contending only for wave capacity and cluster time, never for the
// victim's data). steps scales with -updates.
func tenantStreams(n, steps int) (victim, mixed []dmpc.Arrival) {
	const gap, burst = 4, 12
	lo, hi := n/4, n-1
	pair := 0
	for s := 0; s < steps; s++ {
		at := int64(s) * gap
		u := (s * 2) % (lo - 1)
		q := dmpc.Arrival{At: at, Op: dmpc.QConnected(u, u+1).ForTenant(1)}
		victim = append(victim, q)
		mixed = append(mixed, q)
		for j := 0; j < burst; j++ {
			w := lo + (pair*2)%(hi-lo-1)
			pair++
			mixed = append(mixed, dmpc.Arrival{At: at, Op: dmpc.Ins(w, w+1).ForTenant(2)})
		}
	}
	return victim, mixed
}

// tenantTable measures the noisy-neighbor scenario on the §5 connectivity
// structure (the structure whose claims oracle covers both op kinds the
// scenario uses).
func tenantTable(n, nUpdates int, seed int64) []tenantRow {
	steps := max(nUpdates/10, 20)
	capEdges := 6 * n
	cfg := dmpc.IngestorConfig{MaxAge: 4}
	victim, mixed := tenantStreams(n, steps)
	// ingest runs one schedule on a fresh structure and closes it.
	ingest := func(arrivals []dmpc.Arrival, cfg dmpc.IngestorConfig) (dmpc.Results, dmpc.StreamStats) {
		p := dmpc.NewConnectivity(n, capEdges, benchOpts()...)
		defer p.Close()
		return dmpc.Ingest(p, arrivals, cfg)
	}

	_, stSolo := ingest(victim, cfg)
	_, stUnfair := ingest(mixed, cfg)

	fairCfg := cfg
	fairCfg.Weights = map[int]int{1: 3, 2: 1}
	fairCfg.Admission = map[int]dmpc.AdmissionPolicy{2: &dmpc.TokenBucket{Rate: 0.1, Burst: 1}}
	_, stFair := ingest(mixed, fairCfg)

	// Zero-tenant control: tags alone must change nothing.
	plain := make([]dmpc.Arrival, len(mixed))
	for i, a := range mixed {
		a.Op.Tenant = 0
		plain[i] = a
	}
	resPlain, stPlain := ingest(plain, cfg)
	resTag, stTag := ingest(mixed, cfg)
	identical := slices.Equal(resPlain, resTag) &&
		stPlain.Flushes == stTag.Flushes && stPlain.Rounds == stTag.Rounds &&
		slices.Equal(stPlain.Latencies, stTag.Latencies)

	v, noisy := stFair.Tenants[1], stFair.Tenants[2]
	return []tenantRow{{
		Name:                "Connected comps (§5)",
		VictimOps:           steps,
		NoisyOps:            len(mixed) - steps,
		VictimSoloP99:       stSolo.Tenants[1].P99(),
		VictimUnfairP99:     stUnfair.Tenants[1].P99(),
		VictimFairP99:       stFair.Tenants[1].P99(),
		NoisyRejected:       noisy.Rejected,
		VictimFairRounds:    v.Rounds,
		NoisyFairRounds:     noisy.Rounds,
		ZeroTenantIdentical: identical,
	}}
}

func printTenantTable(rows []tenantRow) {
	printRows("\nMulti-tenant streams: victim read-p99 under a noisy tenant's write storm:",
		"Algorithm\tvictim ops\tnoisy ops\tsolo p99\tunfair p99\tfair p99\trejected\tzero-tenant identical",
		"%s\t%d\t%d\t%d\t%d\t%d\t%d\t%v", rows,
		func(r tenantRow) []any {
			return []any{r.Name, r.VictimOps, r.NoisyOps, r.VictimSoloP99, r.VictimUnfairP99, r.VictimFairP99, r.NoisyRejected, r.ZeroTenantIdentical}
		},
		"(fair = deficit-round-robin wave shares + token-bucket admission on the storm;",
		" the fair column must stay near the solo baseline while unfair drifts above it)")
}
