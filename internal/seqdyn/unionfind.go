package seqdyn

// UnionFind is a disjoint-set forest with union by rank and path
// compression: the classic incremental connectivity structure, used both as
// an oracle and as a reduction target for insert-only workloads.
type UnionFind struct {
	parent []int32
	rank   []int8
	comps  int
	Ops    Counter
}

// NewUnionFind returns n singleton sets.
func NewUnionFind(n int) *UnionFind {
	u := &UnionFind{parent: make([]int32, n), rank: make([]int8, n), comps: n}
	for i := range u.parent {
		u.parent[i] = int32(i)
	}
	return u
}

// Find returns the representative of x's set.
func (u *UnionFind) Find(x int) int {
	root := x
	for int(u.parent[root]) != root {
		root = int(u.parent[root])
		u.Ops.Inc(1)
	}
	for int(u.parent[x]) != root {
		u.parent[x], x = int32(root), int(u.parent[x])
		u.Ops.Inc(1)
	}
	u.Ops.Inc(1)
	return root
}

// Union merges the sets of a and b, reporting whether they were distinct.
func (u *UnionFind) Union(a, b int) bool {
	ra, rb := u.Find(a), u.Find(b)
	if ra == rb {
		return false
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = int32(ra)
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
	u.comps--
	u.Ops.Inc(1)
	return true
}

// Components returns the number of disjoint sets.
func (u *UnionFind) Components() int { return u.comps }
