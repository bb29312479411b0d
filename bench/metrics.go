package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// metricDef names one metric the benchmark emits. BENCHMARK.json is the
// registry of record for direction and bound; the names and units here
// must match it (TestSmokeAndSchema). exact marks a count the
// deterministic backends must reproduce bit for bit from one seed:
// -compare demands equality of it, whatever its registered bound, which
// only absorbs the drift between seeds.
type metricDef struct {
	name, unit string
	exact      bool
}

var e2eDefs = []metricDef{
	{"ops_per_s", "ops/s", false},
	{"apply_p50_ms", "ms", false},
	{"lat_p50_rounds", "rounds", true},
	{"lat_p99_rounds", "rounds", true},
	{"rounds_per_op", "rounds/op", true},
	{"words_per_op", "words/op", true},
	{"active_per_round", "machines", true},
	{"peak_mem_over_S", "ratio", true},
	{"allocs_per_op", "allocs/op", false},
	{"heap_live_mb", "MB", false},
	{"setup_s", "s", false},
}

// The per-layer metrics, prefixed by module. core. is the module under
// the facade — dyncon on the cc-* workloads, dmm on mm-uniform, amm on
// amm-ingest — under one name, because a run must emit every registered
// metric whatever its workload.
var layerDefs = []metricDef{
	{"dmpc.front_ns_per_op", "ns/op", false},
	{"dmpc.front_share", "ratio", false},
	{"dmpc.flushes_per_kop", "1/kop", true},
	{"dmpc.mean_window_ops", "ops", true},
	{"dmpc.flush_conflict_frac", "ratio", true},
	{"dmpc.flush_age_frac", "ratio", true},
	{"dmpc.flush_full_frac", "ratio", true},
	{"dmpc.apply_p99_ms", "ms", false},
	{"dmpc.apply_max_ms", "ms", false},

	{"sched.pack_ns_per_op", "ns/op", false},
	{"sched.pack_allocs_per_op", "allocs/op", false},
	{"sched.pack_share", "ratio", false},
	{"sched.waves_per_kop", "1/kop", true},
	{"sched.mean_wave_width", "ops", true},
	{"sched.items_read_per_op", "items/op", true},
	{"sched.useful_item_frac", "ratio", true},

	{"core.claims_ns_per_call", "ns", false},
	{"core.claims_allocs_per_call", "allocs", false},
	{"core.claims_share", "ratio", false},
	{"core.apply_ns_per_op", "ns/op", false},
	{"core.handlers_ns_per_op", "ns/op", false},
	{"core.handlers_share", "ratio", false},
	{"core.memreport_ns_per_call", "ns", false},
	{"core.memreport_share", "ratio", false},
	{"core.state_words", "words", true},

	{"mpc.round_ns_replay", "ns", false},
	{"mpc.round_allocs_replay", "allocs", false},
	{"mpc.engine_share", "ratio", false},
	{"mpc.msgs_per_round", "msgs", true},
	{"mpc.words_per_round", "words", true},
	{"mpc.max_round_words", "words", true},
	{"mpc.comm_entropy_bits", "bits", true},
	{"mpc.max_pair_words", "words", true},
	{"mpc.sim_speed_ratio", "ratio", false},
	{"mpc.violations_per_kop", "1/kop", true},

	{"etour.shift_apply_ns_per_pos", "ns", false},
	{"treedp.apply_shifts_ns_per_rec", "ns", false},
	{"graph.gen_s", "s", false},
	{"bench.trace_overhead_frac", "ratio", false},
	{"bench.replay_overrun_frac", "ratio", false},
}

// withUnits stamps every metric of m with its registered unit and
// reports the registered names m lacks.
func withUnits(m map[string]value, defs []metricDef) error {
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		v.Unit = d.unit
		m[d.name] = v
	}
	if len(m) != len(defs) {
		return fmt.Errorf("%d metrics measured, %d registered", len(m), len(defs))
	}
	return nil
}

// registry is BENCHMARK.json as the benchmark reads it.
type registry struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []registered `json:"end_to_end"`
	PerLayer []registered `json:"per_layer"`
}

type registered struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// repoRoot finds the directory holding BENCHMARK.json: the working
// directory when run through run.sh, its parent under `go test`.
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found in . or ..")
}

func readRegistry() (registry, error) {
	var reg registry
	root, err := repoRoot()
	if err != nil {
		return reg, err
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return reg, err
	}
	if err := json.Unmarshal(data, &reg); err != nil {
		return reg, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return reg, nil
}
