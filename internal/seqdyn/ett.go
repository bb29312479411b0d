package seqdyn

import "fmt"

// ETT maintains Euler tours of a forest in balanced search trees (treaps),
// the classic O(log n) link/cut/connectivity structure of Henzinger–King
// and Holm et al. The tour of each tree is a sequence containing one loop
// element per vertex and two arc elements per tree edge; the treap stores
// the sequence by implicit position.
//
// Flag augmentation (per-node bits with subtree ORs) supports the HDT
// connectivity algorithm: forests at level i flag tree edges whose level is
// exactly i and vertices that own non-tree edges at level i, so the
// replacement search can enumerate flagged elements in O(log n) each.
type ETT struct {
	loop map[int32]*ettNode
	arc  map[int64]*ettNode
	seed uint64
	Ops  *Counter
}

// Flag bits for ettNode.
const (
	// FlagEdgeExact marks a tree edge whose level equals this forest's.
	FlagEdgeExact uint8 = 1 << iota
	// FlagVertexNonTree marks a vertex owning non-tree edges at this level.
	FlagVertexNonTree
)

type ettNode struct {
	l, r, p  *ettNode
	prio     uint64
	size     int32
	loops    int32
	u, v     int32
	flags    uint8
	subFlags uint8
}

func (n *ettNode) isLoop() bool { return n.u == n.v }

// NewETT returns an empty forest; vertices materialize lazily as
// singletons. ops may be nil.
func NewETT(ops *Counter) *ETT {
	if ops == nil {
		ops = &Counter{}
	}
	return &ETT{
		loop: make(map[int32]*ettNode),
		arc:  make(map[int64]*ettNode),
		seed: 0x9e3779b97f4a7c15,
		Ops:  ops,
	}
}

func arcKey(u, v int32) int64 { return int64(u)<<32 | int64(uint32(v)) }

// splitmix64 gives deterministic, well-mixed treap priorities.
func (t *ETT) nextPrio() uint64 {
	t.seed += 0x9e3779b97f4a7c15
	z := t.seed
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func size(n *ettNode) int32 {
	if n == nil {
		return 0
	}
	return n.size
}

func loopsOf(n *ettNode) int32 {
	if n == nil {
		return 0
	}
	return n.loops
}

func subFlags(n *ettNode) uint8 {
	if n == nil {
		return 0
	}
	return n.subFlags
}

func (n *ettNode) pull() {
	n.size = 1 + size(n.l) + size(n.r)
	n.loops = loopsOf(n.l) + loopsOf(n.r)
	if n.isLoop() {
		n.loops++
	}
	n.subFlags = n.flags | subFlags(n.l) | subFlags(n.r)
	if n.l != nil {
		n.l.p = n
	}
	if n.r != nil {
		n.r.p = n
	}
}

func (t *ETT) merge(a, b *ettNode) *ettNode {
	t.Ops.Inc(1)
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if a.prio > b.prio {
		a.r = t.merge(a.r, b)
		a.pull()
		return a
	}
	b.l = t.merge(a, b.l)
	b.pull()
	return b
}

// splitAt divides the sequence rooted at n into the first k elements and
// the rest; both results have nil parents.
func (t *ETT) splitAt(n *ettNode, k int32) (a, b *ettNode) {
	t.Ops.Inc(1)
	if n == nil {
		return nil, nil
	}
	if size(n.l) >= k {
		a, n.l = t.splitAt(n.l, k)
		n.pull()
		n.p = nil
		if a != nil {
			a.p = nil
		}
		return a, n
	}
	n.r, b = t.splitAt(n.r, k-size(n.l)-1)
	n.pull()
	n.p = nil
	if b != nil {
		b.p = nil
	}
	return n, b
}

func (t *ETT) rootOf(n *ettNode) *ettNode {
	for n.p != nil {
		n = n.p
		t.Ops.Inc(1)
	}
	return n
}

// indexOf returns n's 0-based position in its sequence.
func (t *ETT) indexOf(n *ettNode) int32 {
	i := size(n.l)
	for n.p != nil {
		if n == n.p.r {
			i += size(n.p.l) + 1
		}
		n = n.p
		t.Ops.Inc(1)
	}
	return i
}

// loopNode returns v's loop node, creating a singleton lazily.
func (t *ETT) loopNode(v int32) *ettNode {
	if n, ok := t.loop[v]; ok {
		return n
	}
	n := &ettNode{prio: t.nextPrio(), u: v, v: v}
	n.pull()
	t.loop[v] = n
	return n
}

// Connected reports whether u and v are in the same tree.
func (t *ETT) Connected(u, v int) bool {
	if u == v {
		return true
	}
	return t.rootOf(t.loopNode(int32(u))) == t.rootOf(t.loopNode(int32(v)))
}

// TreeSize returns the number of vertices in v's tree.
func (t *ETT) TreeSize(v int) int {
	return int(t.rootOf(t.loopNode(int32(v))).loops)
}

// reroot rotates v's tour so it starts at v's loop node.
func (t *ETT) reroot(n *ettNode) *ettNode {
	root := t.rootOf(n)
	i := t.indexOf(n)
	if i == 0 {
		return root
	}
	a, b := t.splitAt(root, i)
	return t.merge(b, a)
}

// Link adds tree edge (u,v); the trees must be distinct (not checked —
// callers maintain forest-ness; Connected is available).
func (t *ETT) Link(u, v int) {
	nu, nv := t.loopNode(int32(u)), t.loopNode(int32(v))
	tu := t.reroot(nu)
	tv := t.reroot(nv)
	auv := &ettNode{prio: t.nextPrio(), u: int32(u), v: int32(v)}
	auv.pull()
	avu := &ettNode{prio: t.nextPrio(), u: int32(v), v: int32(u)}
	avu.pull()
	t.arc[arcKey(int32(u), int32(v))] = auv
	t.arc[arcKey(int32(v), int32(u))] = avu
	t.merge(t.merge(tu, auv), t.merge(tv, avu))
}

// Cut removes tree edge (u,v); panics if absent.
func (t *ETT) Cut(u, v int) {
	nuv, ok1 := t.arc[arcKey(int32(u), int32(v))]
	nvu, ok2 := t.arc[arcKey(int32(v), int32(u))]
	if !ok1 || !ok2 {
		panic(fmt.Sprintf("seqdyn: Cut(%d,%d): not a tree edge", u, v))
	}
	delete(t.arc, arcKey(int32(u), int32(v)))
	delete(t.arc, arcKey(int32(v), int32(u)))
	i, j := t.indexOf(nuv), t.indexOf(nvu)
	if i > j {
		nuv, nvu = nvu, nuv
		i, j = j, i
	}
	root := t.rootOf(nuv)
	a, rest := t.splitAt(root, i)
	mid, c := t.splitAt(rest, j-i+1)
	// mid = arc ++ M ++ arc; strip both arc nodes.
	_, m1 := t.splitAt(mid, 1)
	m, _ := t.splitAt(m1, size(m1)-1)
	t.merge(a, c)
	_ = m // m is the detached subtree's tour, already a standalone root
}

// SetEdgeFlag sets or clears FlagEdgeExact on tree edge (u,v) (stored on
// the u->v arc as inserted by Link; callers pass a consistent orientation).
func (t *ETT) SetEdgeFlag(u, v int, on bool) {
	n, ok := t.arc[arcKey(int32(u), int32(v))]
	if !ok {
		panic(fmt.Sprintf("seqdyn: SetEdgeFlag(%d,%d): not a tree edge", u, v))
	}
	t.setFlag(n, FlagEdgeExact, on)
}

// SetVertexFlag sets or clears FlagVertexNonTree on v's loop node.
func (t *ETT) SetVertexFlag(v int, on bool) {
	t.setFlag(t.loopNode(int32(v)), FlagVertexNonTree, on)
}

func (t *ETT) setFlag(n *ettNode, bit uint8, on bool) {
	if on {
		n.flags |= bit
	} else {
		n.flags &^= bit
	}
	for m := n; m != nil; m = m.p {
		m.subFlags = m.flags | subFlags(m.l) | subFlags(m.r)
		t.Ops.Inc(1)
	}
}

// FindEdgeFlag returns some tree edge flagged FlagEdgeExact in v's tree.
func (t *ETT) FindEdgeFlag(v int) (a, b int, ok bool) {
	n := t.findFlag(t.rootOf(t.loopNode(int32(v))), FlagEdgeExact)
	if n == nil {
		return 0, 0, false
	}
	return int(n.u), int(n.v), true
}

// FindVertexFlag returns some vertex flagged FlagVertexNonTree in v's tree.
func (t *ETT) FindVertexFlag(v int) (int, bool) {
	n := t.findFlag(t.rootOf(t.loopNode(int32(v))), FlagVertexNonTree)
	if n == nil {
		return 0, false
	}
	return int(n.u), true
}

func (t *ETT) findFlag(n *ettNode, bit uint8) *ettNode {
	for n != nil && n.subFlags&bit != 0 {
		t.Ops.Inc(1)
		if n.flags&bit != 0 {
			return n
		}
		if subFlags(n.l)&bit != 0 {
			n = n.l
		} else {
			n = n.r
		}
	}
	return nil
}

// TourVertices returns the distinct vertices of v's tree in tour order —
// an O(size) enumeration used by oracles and the MSF replacement scan.
func (t *ETT) TourVertices(v int) []int {
	var out []int
	var walk func(n *ettNode)
	walk = func(n *ettNode) {
		if n == nil {
			return
		}
		walk(n.l)
		if n.isLoop() {
			out = append(out, int(n.u))
		}
		walk(n.r)
	}
	walk(t.rootOf(t.loopNode(int32(v))))
	return out
}
