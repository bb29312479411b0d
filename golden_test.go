package dmpc

import (
	"bytes"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"dmpc/internal/graph"
)

var updateGolden = flag.Bool("update", false, "regenerate testdata golden files")

// goldenReport is the serialized accounting of one workload: every
// window it ran, verbatim — both halves and the per-wave attribution.
type goldenReport struct {
	Name    string
	Windows []MixedStats
}

// apply runs one op stream through the pipeline and files its window.
func (r *goldenReport) apply(p Pipeline, ops []Op) {
	_, st := p.Apply(ops)
	r.Windows = append(r.Windows, st)
}

// auditClaims switches on dyncon's AuditClaims check — every wave formed
// from items equal to a full re-read of the pending ops — for the
// connectivity pipelines among ps; the other cores do not run on
// sched.Drive's incremental re-read and have nothing to audit.
func auditClaims(t testing.TB, ps ...Pipeline) {
	for _, p := range ps {
		switch p := p.(type) {
		case *Connectivity:
			p.d.AuditClaims(t.Fatalf)
		case *MST:
			p.d.AuditClaims(t.Fatalf)
		}
	}
}

// goldenWorkloads runs a fixed seed/workload through every algorithm as
// write-only windows, read-only windows and mixed windows and returns the
// complete returned accounting. Any intentional scheduler change shows up
// as a diff against testdata/golden_stats.json and is re-pinned with
// `go test -run Golden -update .`; an unintentional one fails the table.
func goldenWorkloads(t testing.TB) []goldenReport {
	const n = 48
	stream := graph.RandomStream(n, 160, 0.55, 30, rand.New(rand.NewSource(77)))
	var connected, mateOf []Op
	for _, p := range graph.RandomPairs(n, 24, rand.New(rand.NewSource(78))) {
		connected = append(connected, QConnected(p.U, p.V))
	}
	for _, v := range graph.RandomVerts(n, 24, rand.New(rand.NewSource(79))) {
		mateOf = append(mateOf, QMateOf(v))
	}
	var out []goldenReport
	// run applies the stream in write-only chunks of 16, then each read
	// stream as its own window. (The names are the golden file's frozen
	// labels: they predate the op stream and name the read windows by the
	// methods that used to issue them.)
	run := func(name string, p Pipeline, reads ...[]Op) {
		auditClaims(t, p)
		r := goldenReport{Name: name}
		for _, b := range Chunk(stream, 16) {
			r.apply(p, UpdateOps(b))
		}
		for _, ops := range reads {
			r.apply(p, ops)
		}
		out = append(out, r)
	}
	run("dyncon-cc k=16 + ConnectedBatch(24) + ComponentOf", NewConnectivity(n, 5*n), connected, []Op{QComponentOf(0)})
	run("dyncon-mst eps=0.25 k=16 + ConnectedBatch(24)", NewMST(n, 0.25, 5*n), connected)
	run("dmm k=16 + MateOfBatch(24)", NewMaximalMatching(n, len(stream)), mateOf)
	run("amm eps=0.5 seed=7 k=16 + MateOfBatch(24)", NewAlmostMaximalMatching(n, 0.5, 7), mateOf)

	// Mixed op pipeline: the same stream with reads sequenced into the
	// waves, pinning the MixedStats attribution (update/query halves and
	// per-wave read counts) against silent drift.
	mrng := rand.New(rand.NewSource(80))
	mops := graph.MixedStream(stream, 0.4, func(r *rand.Rand) Op {
		return QConnected(r.Intn(n), r.Intn(n))
	}, mrng)
	mixed := goldenReport{Name: "dyncon-cc mixed readfrac=0.4 k=20 (unified op pipeline)"}
	mcc := NewConnectivity(n, 5*n)
	auditClaims(t, mcc)
	for _, chunk := range SplitOps(mops, 20) {
		mixed.apply(mcc, chunk)
	}
	return append(out, mixed)
}

// TestGoldenStats pins the exact window accounting — rounds, actives and
// words of both halves, and the per-wave breakdown — of a fixed seed/workload for
// every algorithm, so a scheduler refactor cannot silently change round
// accounting: any drift fails here and must be re-pinned explicitly with
// -update, making the accounting change visible in review.
func TestGoldenStats(t *testing.T) {
	got, err := json.MarshalIndent(goldenWorkloads(t), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "golden_stats.json")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with `go test -run Golden -update .`)", err)
	}
	if !bytes.Equal(got, want) {
		// Point at the first diverging line to keep the failure readable.
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("round accounting drifted from %s at line %d:\n got: %s\nwant: %s\n(re-pin intentional changes with `go test -run Golden -update .`)",
					path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("round accounting drifted from %s (length %d vs %d); re-pin intentional changes with `go test -run Golden -update .`",
			path, len(got), len(want))
	}
}
