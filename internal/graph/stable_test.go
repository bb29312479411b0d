package graph

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"math/rand"
	"testing"
)

// stableDigests pins the output of every generator, decoder and oracle
// the workloads are built from: a change in rng draw order or in a
// filter rule moves one of these, and with it every benchmark stream.
// Re-pin only for an intended change to a stream.
var stableDigests = map[string]string{
	"RandomStream":         "47a8d34e59469b9e344079ba8ea335333821c5e6f8a32e96f1eecb26f2465dae",
	"SlidingWindow":        "295a9f5a0adaac23d3ede92254ebe9fcc0a6f748e0e3a4c5139148749d02609b",
	"TreeChurn":            "b8977efd0a11eb274a8f9827d65990359422dcd8c4c73076b0485bad59a141b2",
	"PrefAttachStream":     "585939dde6fa7624117981df6147da8adc90bae5126caa03cd8d01b5ef2555a2",
	"GNM":                  "a9b135a473dd76289c900a972f3d07647b58135527dda64310db61c3bdccaedb",
	"RandomTree":           "6f7e8b5d9ae690d448f2eb64f8490174604878fc0c7b5b8f5307af3ae19305b0",
	"Grid":                 "ce940fedc10bf5deee1f9de0457f2671f7071cdae8685718781dc0c794d1084d",
	"MSFEdges":             "c00fb87e0a6206996c9f1051bc6c3c2219a4887003b31de6e35cc03d941fbf05",
	"IsSpanningForest":     "a169e1e2e786f20b98b13d67a067a8151b966ecbcf05f95db14dac15f1d3cf54",
	"FuzzStream":           "dc09384a114ac9965e0a2b2690571909cd475b8f80ca42430386e38d292d3ec3",
	"FuzzStreamWellFormed": "f6496f01faebab6c443c05c6c36b9e3566cbaa1c79e04bb644d474564d48b894",
	"FuzzOps":              "37dab22bb3137515315aec7dfc32c0b33142680242da5be8735a19f92aebf52d",
	"FuzzArrivals":         "07cf170f763ee3fe0d84e50b1233d22a5d03c8515d6d7706f4a97415cebf941c",
}

// stableQKinds are the query-kind lists the fuzz decoders are hashed
// under: connectivity reads, matching reads, and the tree-DP reads with
// vertex-weight writes.
var stableQKinds = [][]OpKind{
	{OpConnected, OpComponentOf},
	{OpMateOf, OpMatched},
	{OpSetWeight, OpSubtreeSum, OpPathSum, OpTreeTop},
}

func hashUpdates(h hash.Hash, ups []Update) {
	fmt.Fprintf(h, "%d:", len(ups))
	for _, u := range ups {
		fmt.Fprintf(h, "%d %d %d %d;", u.Op, u.U, u.V, u.W)
	}
}

func hashOps(h hash.Hash, ops []Op) {
	fmt.Fprintf(h, "%d:", len(ops))
	for _, o := range ops {
		fmt.Fprintf(h, "%d %d %d %d %d;", o.Kind, o.U, o.V, o.W, o.Tenant)
	}
}

func hashEdges(h hash.Hash, es []WEdge) {
	fmt.Fprintf(h, "%d:", len(es))
	for _, e := range es {
		fmt.Fprintf(h, "%d %d %d;", e.U, e.V, e.W)
	}
}

// TestGeneratorsStable hashes each case over 40 seeds and
// n ∈ {2, 3, 8, 64, 300}, and compares the digest with the pinned one.
func TestGeneratorsStable(t *testing.T) {
	hs := make(map[string]hash.Hash, len(stableDigests))
	for name := range stableDigests {
		hs[name] = sha256.New()
	}
	for seed := int64(1); seed <= 40; seed++ {
		maxW := Weight(1)
		if seed%2 == 0 {
			maxW = 9
		}
		for _, n := range []int{2, 3, 8, 64, 300} {
			full := n * (n - 1) / 2
			rng := rand.New(rand.NewSource(seed*1000 + int64(n)))
			hashUpdates(hs["RandomStream"], RandomStream(n, 3*n+20, 0.6, maxW, rng))
			for _, window := range []int{min(n/2+1, full), min(2*n, full)} {
				hashUpdates(hs["SlidingWindow"], SlidingWindow(n, window, 4*n+20, maxW, rng))
			}
			initial, churn := TreeChurn(n, n/2, n, maxW, rng)
			hashUpdates(hs["TreeChurn"], initial)
			hashUpdates(hs["TreeChurn"], churn)
			for _, delFrac := range []float64{0, 0.3} {
				hashUpdates(hs["PrefAttachStream"], PrefAttachStream(n, 3*n+20, delFrac, rng))
			}
			hashEdges(hs["GNM"], GNM(n, 2*n, maxW, rng).Edges())
			hashEdges(hs["RandomTree"], RandomTree(n, maxW, rng).Edges())
			r, c := n%7+1, int(seed%5)+1
			hashEdges(hs["Grid"], Grid(r, c, maxW, rng).Edges())
			hashEdges(hs["Grid"], Grid(r, c, maxW, nil).Edges())

			g := GNM(n, n+n/2, 9, rng)
			msf := MSFEdges(g)
			hashEdges(hs["MSFEdges"], msf)
			forests := [][]Edge{nil, {}, {{0, 1}}}
			tree := make([]Edge, len(msf))
			for i, e := range msf {
				tree[i] = Edge{U: e.U, V: e.V}
			}
			forests = append(forests, tree)
			if len(tree) > 0 {
				forests = append(forests, tree[:len(tree)-1], append([]Edge{tree[len(tree)-1]}, tree...))
			}
			var sub []Edge
			for _, e := range g.Edges() {
				if rng.Intn(2) == 0 {
					sub = append(sub, Edge{U: e.U, V: e.V})
				}
			}
			forests = append(forests, sub)
			for _, f := range forests {
				fmt.Fprintf(hs["IsSpanningForest"], "%v;", IsSpanningForest(g, f))
			}

			data := make([]byte, 3*n+4*int(seed)+2)
			rng.Read(data)
			hashUpdates(hs["FuzzStream"], FuzzStream(data, n, maxW))
			hashUpdates(hs["FuzzStreamWellFormed"], FuzzStreamWellFormed(data, n, maxW))
			for _, qk := range stableQKinds {
				for _, wf := range []bool{false, true} {
					hashOps(hs["FuzzOps"], FuzzOps(data, n, maxW, qk, wf))
					arr := FuzzArrivals(data, n, maxW, qk, wf)
					h := hs["FuzzArrivals"]
					fmt.Fprintf(h, "%d:", len(arr))
					for _, a := range arr {
						fmt.Fprintf(h, "%d %d %d %d %d %d;", a.At, a.Op.Kind, a.Op.U, a.Op.V, a.Op.W, a.Op.Tenant)
					}
				}
			}
		}
	}
	for name, want := range stableDigests {
		if got := fmt.Sprintf("%x", hs[name].Sum(nil)); got != want {
			t.Errorf("%s: digest %s, want %s", name, got, want)
		}
	}
}
