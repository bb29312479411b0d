// Package etour implements the Euler-tour machinery of §5 of the paper.
//
// An Euler tour (E-tour) of a rooted tree T is the sequence of endpoints of
// the arcs traversed by a depth-first walk that starts and ends at the root;
// each tree edge contributes two arcs, each arc contributes its two
// endpoints, so the tour has length ELen(T) = 4(|T|-1) and every vertex v
// appears exactly 2·deg_T(v) times. The tour is never materialized by the
// dynamic algorithms: each tree edge stores the four positions of its arc
// endpoints, and each vertex stores its first and last appearance f(v),
// l(v). Every structural operation — rerooting a tree, linking two trees,
// cutting a subtree — transforms all stored positions by an affine map
// conditioned only on position values (never on vertex identities), so a
// machine holding an arbitrary shard of edges can apply the map locally
// after receiving an O(1)-word descriptor. This is the property the paper
// leverages to update the tours with O(1) rounds and O(1)-size messages per
// machine.
//
// Position conventions (verified against Figures 1 and 2 of the paper):
//
//   - Positions are 1-based; a singleton tree has an empty tour and its
//     vertex has f = l = 0.
//   - Arc k occupies positions (2k-1, 2k); consecutive arcs share their
//     meeting vertex, and the tour is circular (position ELen holds the
//     root, as does position 1).
//   - For a non-root vertex v, f(v) is even (v first appears as the target
//     of the arc from its parent) and l(v) is odd (v last appears as the
//     source of the arc back to its parent). The root has f = 1, l = ELen.
//
// The paper's §5 prints the tail shift of insert(x,y) as "4·ELength_Ty";
// replaying Figure 1 shows the correct shift is ELength_Ty + 4, which is
// what this package implements.
package etour

// ShiftKind enumerates the value-conditional index maps of §5.
type ShiftKind int8

const (
	// ShiftReroot rotates a tour so that the vertex whose last appearance
	// was at position B=l(y) becomes the root: i' = ((i - l(y) + L) mod L) + 1
	// applied to every position of the component; A carries L.
	ShiftReroot ShiftKind = iota
	// ShiftLinkGuest shifts every position of the guest tree Ty (already
	// rerooted at y) into its spliced location: i' = i + q + 2, where A
	// carries q (the splice point in the host tour). Guest positions are
	// additionally relabeled to the host component.
	ShiftLinkGuest
	// ShiftLinkHost shifts the host-tree positions after the splice point:
	// if i > q then i' = i + Ly + 4; A carries q, B carries Ly.
	ShiftLinkHost
	// ShiftCutSub renumbers the positions strictly inside the cut subtree
	// interval: if f(y) < i < l(y) then i' = i - f(y); A carries f(y), B
	// carries l(y). Matching positions move to a fresh component.
	ShiftCutSub
	// ShiftCutRest closes the gap left by the removed subtree: if
	// i > l(y)+1 then i' = i - (l(y) - f(y) + 3); A carries f(y), B l(y).
	ShiftCutRest
	// ShiftCutRepair remaps the four positions removed by a cut — the arc
	// positions of the deleted edge — onto surviving appearances of the
	// same vertices, using the tour's circular chain property (positions
	// 2k and 2k+1 hold the same vertex). It must be applied before
	// ShiftCutSub/ShiftCutRest. A carries f(y), B carries l(y), C the
	// pre-cut tour length; vertices left as singletons map to 0. Machines
	// apply it to mirrored anchor positions, which may be any appearance
	// of the mirrored vertex.
	ShiftCutRepair
)

func (k ShiftKind) String() string {
	switch k {
	case ShiftReroot:
		return "reroot"
	case ShiftLinkGuest:
		return "link-guest"
	case ShiftLinkHost:
		return "link-host"
	case ShiftCutSub:
		return "cut-sub"
	case ShiftCutRest:
		return "cut-rest"
	case ShiftCutRepair:
		return "cut-repair"
	}
	return "?"
}

// Shift is an O(1)-word broadcast descriptor: a value-conditional affine
// map over the tour positions of one component. Machines apply it to every
// position they store (edge arc positions, vertex f/l values, and mirrored
// neighbor positions) for vertices in component Comp; positions matching
// the condition of a ShiftLinkGuest or ShiftCutSub map are relabeled to
// component NewComp.
type Shift struct {
	Kind    ShiftKind
	Comp    int64 // component whose positions this map addresses
	NewComp int64 // target component for relabeling kinds; else Comp
	A, B, C int   // parameters, see ShiftKind docs
}

// Apply transforms a single position value. It never inspects vertex
// identity, only the position value, which is what makes the map safely
// applicable to arbitrary shards, including mirrored copies of neighbor
// positions.
func (s Shift) Apply(i int) int {
	switch s.Kind {
	case ShiftReroot:
		L, ly := s.A, s.B
		if L <= 0 {
			return i
		}
		return ((i-ly+L)%L+L)%L + 1
	case ShiftLinkGuest:
		return i + s.A + 2
	case ShiftLinkHost:
		if i > s.A {
			return i + s.B + 4
		}
		return i
	case ShiftCutSub:
		if i > s.A && i < s.B {
			return i - s.A
		}
		return i
	case ShiftCutRest:
		if i > s.B+1 {
			return i - (s.B - s.A + 3)
		}
		return i
	case ShiftCutRepair:
		fy, ly, L := s.A, s.B, s.C
		subSingleton := ly == fy+1
		restSingleton := fy == 2 && ly == L-1
		switch i {
		case fy - 1: // x's appearance on the removed arc (x,y)
			if restSingleton {
				return 0
			}
			if fy-2 >= 1 {
				return fy - 2
			}
			return L
		case ly + 1: // x's appearance on the removed arc (y,x)
			if restSingleton {
				return 0
			}
			if ly+2 <= L {
				return ly + 2
			}
			return 1
		case fy: // y's first appearance
			if subSingleton {
				return 0
			}
			return fy + 1
		case ly: // y's last appearance
			if subSingleton {
				return 0
			}
			return ly - 1
		}
		return i
	}
	return i
}

// ApplyEdge moves e's four positions as four Apply calls would and reports
// Moves of e.UV[0] as it was, deciding the kind once per edge, not per position.
func (s Shift) ApplyEdge(e *EdgePos) (moved bool) {
	a, b, c, d := e.UV[0], e.UV[1], e.VU[0], e.VU[1]
	switch s.Kind {
	case ShiftLinkGuest:
		k := s.A + 2
		a, b, c, d, moved = a+k, b+k, c+k, d+k, true
	case ShiftLinkHost:
		q, k := s.A, s.B+4
		a, b, c, d = above(a, q, k), above(b, q, k), above(c, q, k), above(d, q, k)
	case ShiftCutRest:
		q, k := s.B+1, -(s.B - s.A + 3)
		a, b, c, d = above(a, q, k), above(b, q, k), above(c, q, k), above(d, q, k)
	default: // a reroot, a cut's repair or sub shift: position by position
		moved = s.Moves(a)
		a, b, c, d = s.Apply(a), s.Apply(b), s.Apply(c), s.Apply(d)
	}
	e.UV[0], e.UV[1], e.VU[0], e.VU[1] = a, b, c, d
	return moved
}

// above adds k to a position past q.
func above(i, q, k int) int {
	if i > q {
		return i + k
	}
	return i
}

// Moves reports whether Apply would relocate position i into the NewComp
// component (only meaningful for relabeling kinds). For ShiftCutRepair it
// fires when the cut leaves the subtree side as a singleton: the child's
// two appearances (at f(y) and l(y)) map to 0 and their component moves to
// the fresh one, keeping mirrored anchors consistent.
func (s Shift) Moves(i int) bool {
	switch s.Kind {
	case ShiftLinkGuest:
		return true // guest maps address the guest component wholesale
	case ShiftCutSub:
		return i > s.A && i < s.B
	case ShiftCutRepair:
		return s.B == s.A+1 && (i == s.A || i == s.B)
	}
	return false
}

// InSubtree reports whether the vertex with appearance interval [fv, lv]
// lies (weakly) inside the subtree of the vertex with interval [fy, ly].
// Singletons (f = l = 0) are only inside their own (empty) interval.
func InSubtree(fv, lv, fy, ly int) bool {
	if fy == 0 && ly == 0 {
		return fv == 0 && lv == 0
	}
	return fy <= fv && lv <= ly
}
