package dyncon

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"dmpc/internal/graph"
)

// stateFingerprint serializes the complete distributed state of d — every
// shard's tree records (with all four tour positions), non-tree records
// (with anchors and per-anchor components), vertex labels, registry sizes
// and ring membership — into one canonical string. Two structures with equal fingerprints
// are bit-identical, not merely equivalent.
func stateFingerprint(d *D) string {
	var lines []string
	for _, sh := range d.shards {
		for e, rec := range sh.tree {
			lines = append(lines, fmt.Sprintf("m%d tree %d-%d pos=%v comp=%d w=%d",
				sh.id, e.U, e.V, rec.pos, rec.comp, rec.w))
		}
		for e, rec := range sh.nontree {
			lines = append(lines, fmt.Sprintf("m%d nt %d-%d a=(%d,%d) c=(%d,%d) w=%d",
				sh.id, e.U, e.V, rec.aU, rec.aV, rec.cU, rec.cV, rec.w))
		}
		for v, comp := range sh.verts {
			lines = append(lines, fmt.Sprintf("m%d vert %d comp=%d", sh.id, v, comp))
		}
		for comp, size := range sh.sizes {
			lines = append(lines, fmt.Sprintf("m%d size %d=%d holders=%+v", sh.id, comp, size, sh.holders[comp]))
		}
		for label := range sh.treeRing {
			lines = append(lines, fmt.Sprintf("m%d rings %d=%s", sh.id, label, ringEdges(sh, label)))
		}
		for label := range sh.ntRing {
			lines = append(lines, fmt.Sprintf("m%d rings %d=%s", sh.id, label, ringEdges(sh, label)))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestWavePermutationCommutativity is the commutativity proof obligation
// from ROADMAP as a property test: for every wave the conflict-graph
// scheduler forms, executing the wave's updates in any order must yield
// bit-identical distributed state — same tour positions, same anchors, same
// labels, same registry — because component-disjoint updates touch disjoint
// records. The test replays the same chunked stream with the injection
// order of every wave shuffled under several seeds (via the wavePerm test
// hook) and demands fingerprint equality with the unpermuted run, in both
// CC and exact-MST modes.
func TestWavePermutationCommutativity(t *testing.T) {
	const n = 48
	stream := graph.RandomStream(n, 240, 0.55, 30, rand.New(rand.NewSource(41)))
	for _, md := range []struct {
		name string
		cfg  Config
	}{
		{"cc", Config{N: n, Mode: CC, ExpectedEdges: 240}},
		{"mst", Config{N: n, Mode: MST, Eps: 0, ExpectedEdges: 240}},
	} {
		run := func(perm func(wave []int)) *D {
			d := New(md.cfg)
			d.wavePerm = perm
			d.AuditClaims(t.Fatalf)
			for _, b := range graph.Chunk(stream, 32) {
				applyBatch(d, b)
			}
			return d
		}
		base := run(nil)
		want := stateFingerprint(base)
		if err := base.Validate(); err != nil {
			t.Fatalf("%s: baseline invariants broken: %v", md.name, err)
		}
		permuted := 0
		for seed := int64(0); seed < 5; seed++ {
			rng := rand.New(rand.NewSource(100 + seed))
			d := run(func(wave []int) {
				if len(wave) > 1 {
					permuted++
				}
				rng.Shuffle(len(wave), func(i, j int) { wave[i], wave[j] = wave[j], wave[i] })
			})
			if got := stateFingerprint(d); got != want {
				t.Fatalf("%s seed %d: permuted wave execution diverged from canonical order:\n got: %.300s\nwant: %.300s",
					md.name, seed, got, want)
			}
			if err := d.Validate(); err != nil {
				t.Fatalf("%s seed %d: invariants broken: %v", md.name, seed, err)
			}
		}
		if permuted == 0 {
			t.Fatalf("%s: no wave wider than 1 was ever permuted — the property was vacuous", md.name)
		}
	}
}
