package graph

import "fmt"

// OpKind classifies one operation of a unified op stream. The first two
// kinds are the write side (they carry an Update); the remaining kinds are
// typed protocol reads. Keeping reads and writes in one stream is the
// batch-dynamic view of a workload: the paper charges both to the same
// three DMPC resources, so a scheduler may interleave them freely as long
// as every read observes exactly the prefix state its stream position
// implies.
type OpKind int8

const (
	// OpInsert adds an edge.
	OpInsert OpKind = iota
	// OpDelete removes an edge.
	OpDelete
	// OpSetWeight assigns vertex U the weight W (dyncon tree DP). A
	// write-side op like OpInsert/OpDelete — it mutates state and
	// produces no Answer — but it carries no edge, so it has no legacy
	// Update form.
	OpSetWeight
	// OpConnected asks whether U and V are in one component (dyncon).
	OpConnected
	// OpComponentOf asks for U's component label (dyncon).
	OpComponentOf
	// OpMateOf asks for U's mate, -1 when free (dmm, amm).
	OpMateOf
	// OpMatched asks whether edge (U,V) is in the matching (dmm, amm).
	OpMatched
	// OpSubtreeSum asks for the sum of vertex weights over the subtree
	// of U when U's tree is rooted at V (dyncon tree DP). When U and V
	// are in different components — or U == V — the "subtree" is U's
	// whole component.
	OpSubtreeSum
	// OpPathSum asks for the sum of vertex weights along the U–V tree
	// path, endpoints included; 0 when U and V are disconnected (dyncon
	// tree DP).
	OpPathSum
	// OpTreeTop asks for the heaviest vertex of U's component — the
	// argmax of vertex weight, smallest id on ties (dyncon tree DP).
	OpTreeTop
)

// IsQuery reports whether the kind is a read.
func (k OpKind) IsQuery() bool { return k >= OpConnected }

func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpSetWeight:
		return "set-weight"
	case OpConnected:
		return "connected?"
	case OpComponentOf:
		return "component-of?"
	case OpMateOf:
		return "mate-of?"
	case OpMatched:
		return "matched?"
	case OpSubtreeSum:
		return "subtree-sum?"
	case OpPathSum:
		return "path-sum?"
	case OpTreeTop:
		return "tree-top?"
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// Op is one operation of a unified op stream: an edge insertion, an edge
// deletion, or a typed read. Single-vertex queries (OpComponentOf,
// OpMateOf) use U and leave V zero.
// Tenant tags the op with the logical stream it belongs to; the zero
// tenant is the single-tenant default and behaves exactly as before
// tenancy existed, so untagged streams (and every committed fuzz
// corpus) are unchanged.
type Op struct {
	Kind   OpKind
	U, V   int
	W      Weight
	Tenant int
}

// IsQuery reports whether the op is a read.
func (o Op) IsQuery() bool { return o.Kind.IsQuery() }

// Update converts a write op to the legacy Update form. It panics on a
// query op: a read has no Update representation, and silently coercing one
// would corrupt a replay. It also panics on OpSetWeight, which is a write
// but touches a vertex, not an edge — there is no Update for it either.
func (o Op) Update() Update {
	switch o.Kind {
	case OpInsert:
		return Update{Op: Insert, U: o.U, V: o.V, W: o.W}
	case OpDelete:
		return Update{Op: Delete, U: o.U, V: o.V}
	case OpSetWeight:
		panic(fmt.Sprintf("graph: Op %v is a vertex-weight write, it has no edge-update form", o))
	}
	panic(fmt.Sprintf("graph: Op %v is a query, not an update", o))
}

// Outside returns a vertex the op names that lies outside [0, n), and
// whether there is one. The single-vertex kinds name only U.
func (o Op) Outside(n int) (int, bool) {
	if uint(o.U) >= uint(n) {
		return o.U, true
	}
	switch o.Kind {
	case OpSetWeight, OpComponentOf, OpMateOf, OpTreeTop:
		return 0, false
	}
	return o.V, uint(o.V) >= uint(n)
}

func (o Op) String() string {
	s := ""
	switch o.Kind {
	case OpInsert:
		s = fmt.Sprintf("insert(%d,%d,w=%d)", o.U, o.V, o.W)
	case OpSetWeight:
		s = fmt.Sprintf("set-weight(%d,w=%d)", o.U, o.W)
	case OpComponentOf, OpMateOf, OpTreeTop:
		s = fmt.Sprintf("%s(%d)", o.Kind, o.U)
	case OpSubtreeSum:
		s = fmt.Sprintf("subtree-sum?(%d,root=%d)", o.U, o.V)
	default:
		s = fmt.Sprintf("%s(%d,%d)", o.Kind, o.U, o.V)
	}
	if o.Tenant != 0 {
		s += fmt.Sprintf("@t%d", o.Tenant)
	}
	return s
}

// ForTenant returns a copy of the op tagged with the tenant id.
func (o Op) ForTenant(t int) Op {
	o.Tenant = t
	return o
}

// Op constructors, one per kind.

// OpIns returns an insert op.
func OpIns(u, v int, w Weight) Op { return Op{Kind: OpInsert, U: u, V: v, W: w} }

// OpDel returns a delete op.
func OpDel(u, v int) Op { return Op{Kind: OpDelete, U: u, V: v} }

// OpQConnected returns a connectivity query op.
func OpQConnected(u, v int) Op { return Op{Kind: OpConnected, U: u, V: v} }

// OpQComponentOf returns a component-label query op.
func OpQComponentOf(v int) Op { return Op{Kind: OpComponentOf, U: v} }

// OpQMateOf returns a mate query op.
func OpQMateOf(v int) Op { return Op{Kind: OpMateOf, U: v} }

// OpQMatched returns a matched-edge query op.
func OpQMatched(u, v int) Op { return Op{Kind: OpMatched, U: u, V: v} }

// OpSetW returns a vertex-weight write op: set v's weight to w.
func OpSetW(v int, w Weight) Op { return Op{Kind: OpSetWeight, U: v, W: w} }

// OpQSubtreeSum returns a subtree-aggregate query op: the weight sum over
// the subtree of u when u's tree is rooted at r (whole component when r
// is not in u's tree, or r == u).
func OpQSubtreeSum(r, u int) Op { return Op{Kind: OpSubtreeSum, U: u, V: r} }

// OpQPathSum returns a path-aggregate query op: the weight sum along the
// u–v tree path, endpoints included (0 when disconnected).
func OpQPathSum(u, v int) Op { return Op{Kind: OpPathSum, U: u, V: v} }

// OpQTreeTop returns a component-argmax query op: the heaviest vertex of
// u's component, smallest id on ties.
func OpQTreeTop(u int) Op { return Op{Kind: OpTreeTop, U: u} }

// OpUpdate lifts a legacy Update into an Op.
func OpUpdate(up Update) Op {
	if up.Op == Insert {
		return OpIns(up.U, up.V, up.W)
	}
	return OpDel(up.U, up.V)
}

// UpdateOps lifts a write-only batch into an op stream.
func UpdateOps(b Batch) []Op {
	ops := make([]Op, len(b))
	for i, up := range b {
		ops[i] = OpUpdate(up)
	}
	return ops
}

// Answer is one query's result; which field is meaningful depends on the
// query kind: Bool answers OpConnected and OpMatched, Int answers
// OpComponentOf (the component label), OpMateOf (the mate, -1 = free),
// OpSubtreeSum and OpPathSum (the weight sum), and OpTreeTop (the
// heaviest vertex's id).
// Rejected marks a query refused by a per-tenant admission policy before
// it ran: Bool and Int are meaningless and the query observed no state —
// the entry exists so Results stays positionally aligned with the query
// stream instead of silently dropping the op.
type Answer struct {
	Bool     bool
	Int      int64
	Rejected bool
}

// Results holds one Answer per query op of a stream, in stream order:
// Results[j] answers the j-th op with IsQuery() true. Write ops produce no
// entry, so len(Results) equals CountOps' query count.
type Results []Answer

// FoldMatched turns a matching's mate answers into the answers of ops, in
// place. The matchings answer every mate read, OpMateOf(u) and
// OpMatched(u,v) alike, with mate(u) in Int (-1 when free); OpMatched
// asks whether that mate is v.
func FoldMatched(ops []Op, res Results) {
	j := 0
	for _, op := range ops {
		if !op.IsQuery() {
			continue
		}
		if op.Kind == OpMatched {
			res[j] = Answer{Bool: res[j].Int == int64(op.V)}
		}
		j++
	}
}

// CountOps counts a stream's operations by side.
func CountOps(ops []Op) (updates, queries int) {
	for _, o := range ops {
		if o.IsQuery() {
			queries++
		} else {
			updates++
		}
	}
	return updates, queries
}

// SplitOps splits an op stream into consecutive chunks of at most k ops,
// preserving the relative order of updates and queries (a chunk is a
// contiguous window, so it cannot reorder anything). Like Chunk, k <= 0 is
// coerced to 1 (singleton chunks, per-op semantics) and k is clamped to
// the stream length first so the capacity expression cannot overflow for k
// near MaxInt. An empty stream yields nil; an all-query stream chunks like
// any other.
func SplitOps(ops []Op, k int) [][]Op {
	if len(ops) == 0 {
		return nil
	}
	if k < 1 {
		k = 1
	}
	if k > len(ops) {
		k = len(ops)
	}
	out := make([][]Op, 0, (len(ops)+k-1)/k)
	for len(ops) > 0 {
		n := k
		if n > len(ops) {
			n = len(ops)
		}
		out = append(out, ops[:n:n])
		ops = ops[n:]
	}
	return out
}
