package graph

// FuzzStream deterministically decodes raw fuzzer bytes into an update
// sequence on n vertices — the shared front-end of the FuzzBatchEquivalence
// harnesses. Every byte string decodes to a legal sequence: three bytes per
// update (op/weight selector, two endpoints), a would-be self-loop bumps
// its second endpoint, and the decoder does NOT filter semantically
// redundant operations — duplicate inserts and deletes of absent edges stay
// in the stream on purpose, because dyncon must agree with sequential
// replay on no-ops exactly as it does on effective updates. Algorithms
// whose stream contract requires well-formedness (dmm, amm) decode through
// FuzzStreamWellFormed instead.
func FuzzStream(data []byte, n int, maxW Weight) []Update {
	if n < 2 {
		return nil
	}
	ups := make([]Update, 0, len(data)/3)
	for i := 0; i+2 < len(data); i += 3 {
		ups = append(ups, fuzzUpdate(data[i:i+3], n, maxW))
	}
	return ups
}

// fuzzUpdate decodes one three-byte update record (selector, two
// endpoints) on n >= 2 vertices, as FuzzStream documents.
func fuzzUpdate(rec []byte, n int, maxW Weight) Update {
	sel := rec[0]
	u, v := int(rec[1])%n, int(rec[2])%n
	if u == v {
		v = (v + 1) % n
	}
	if sel&1 == 1 {
		return Update{Op: Delete, U: u, V: v}
	}
	w := Weight(1)
	if maxW > 1 {
		w = 1 + Weight(sel>>1)%maxW
	}
	return Update{Op: Insert, U: u, V: v, W: w}
}

// FuzzOps deterministically decodes raw fuzzer bytes into a mixed op
// stream on n vertices — the shared front-end of the FuzzMixedEquivalence
// harnesses. Three bytes per op, like FuzzStream: the selector's low two
// bits choose between an update (0, 1: decoded exactly like FuzzStream so
// update-only prefixes stay byte-compatible with the batch harnesses) and
// a query drawn from qkinds (2, 3), keeping roughly half of every random
// stream reads. qkinds may include OpSetWeight, in which case the drawn
// op is a vertex-weight write (U, W = third byte mod maxW+1) instead of a
// read. Callers whose update contract requires well-formedness
// (dmm) set wellFormed, which filters the interleaved updates through the
// FuzzStreamWellFormed rules while queries pass through untouched at their
// stream positions.
func FuzzOps(data []byte, n int, maxW Weight, qkinds []OpKind, wellFormed bool) []Op {
	ops, _ := fuzzOps(data, 3, n, maxW, qkinds, wellFormed)
	return ops
}

// fuzzOps is the stride-parameterized decoder behind FuzzOps and
// FuzzArrivals: each record is stride (>= 3) bytes, the first three
// decode the op exactly as FuzzOps documents, and any extra record bytes
// ride along with the emitted op — extras[j] holds bytes 3..stride of the
// j-th emitted op's record, so a record dropped by the well-formed filter
// drops its extra bytes too and extras stays index-aligned with ops.
func fuzzOps(data []byte, stride, n int, maxW Weight, qkinds []OpKind, wellFormed bool) (ops []Op, extras [][]byte) {
	if n < 2 || len(qkinds) == 0 {
		return nil, nil
	}
	// Well-formedness state for the update side only.
	var live *edgeSet
	if wellFormed {
		live = newEdgeSet(n, 0)
	}
	ops = make([]Op, 0, len(data)/stride)
	extras = make([][]byte, 0, len(data)/stride)
	for i := 0; i+stride-1 < len(data); i += stride {
		up := fuzzUpdate(data[i:i+3], n, maxW)
		op := OpUpdate(up)
		if sel := data[i]; sel&3 >= 2 {
			op = Op{Kind: qkinds[int(sel>>2)%len(qkinds)], U: up.U, V: up.V}
			switch op.Kind {
			case OpSetWeight:
				// A vertex-weight write drawn from the kind list: not a
				// query, but it rides the query selector so harnesses
				// opting in get weight churn interleaved with reads.
				op.V, op.W = 0, Weight(data[i+2])%(maxW+1)
			case OpComponentOf, OpMateOf, OpTreeTop:
				op.V = 0
			case OpSubtreeSum, OpPathSum:
				// Undo the self-loop bump: rooting a subtree query at u
				// itself and the trivial u-u path are both legal and have
				// dedicated fast paths worth fuzzing.
				op.V = int(data[i+2]) % n
			}
		} else if live != nil {
			var ok bool
			if up, ok = live.keepWellFormed(up); !ok {
				continue
			}
			op = OpUpdate(up)
		}
		ops = append(ops, op)
		extras = append(extras, data[i+3:i+stride])
	}
	return ops, extras
}

// FuzzStreamWellFormed decodes like FuzzStream but keeps the sequence
// well-formed — no duplicate inserts, no deletes of absent edges — which is
// the standard dynamic-algorithm stream contract that dmm's and amm's
// degree bookkeeping relies on (see the startInsert comment in dmm). To
// preserve delete coverage, a delete whose decoded target is absent falls
// back to deleting a deterministically chosen present edge instead of being
// dropped; duplicate inserts are dropped (there is no canonical fallback
// edge to insert).
func FuzzStreamWellFormed(data []byte, n int, maxW Weight) []Update {
	raw := FuzzStream(data, n, maxW)
	live := newEdgeSet(n, 0)
	ups := raw[:0]
	for _, up := range raw {
		if up, ok := live.keepWellFormed(up); ok {
			ups = append(ups, up)
		}
	}
	return ups
}
