package etour

import (
	"fmt"
	"sort"
	"strings"
)

// Seq is a materialized Euler tour: the explicit sequence of vertex
// appearances. It exists as an independent oracle for the index-arithmetic
// Forest (the two implementations are cross-checked in tests) and to render
// the paper's Figures 1 and 2. Position arguments and results are 1-based,
// matching the paper; a singleton tree is the empty sequence.
type Seq struct {
	s []int
}

// SeqFromSlice wraps an explicit appearance sequence (1-based positions map
// to slice indexes 0..) so external reconstructions can reuse Valid,
// First/Last and Render.
func SeqFromSlice(s []int) *Seq { return &Seq{s: append([]int(nil), s...)} }

// BuildSeq constructs the canonical Euler tour of the tree containing root,
// visiting children in ascending vertex order — the order used by the
// paper's figures. adj maps each vertex to its tree neighbors.
func BuildSeq(adj map[int][]int, root int) *Seq {
	var s []int
	seen := map[int]bool{root: true}
	var dfs func(v int)
	dfs = func(v int) {
		nbrs := append([]int(nil), adj[v]...)
		sort.Ints(nbrs)
		for _, w := range nbrs {
			if seen[w] {
				continue
			}
			seen[w] = true
			s = append(s, v, w) // arc v -> w
			dfs(w)
			s = append(s, w, v) // arc w -> v
		}
	}
	dfs(root)
	return &Seq{s: s}
}

// Len returns ELen, the tour length.
func (t *Seq) Len() int { return len(t.s) }

// First returns f(v), the 1-based first appearance of v, or 0 if absent.
func (t *Seq) First(v int) int {
	for i, x := range t.s {
		if x == v {
			return i + 1
		}
	}
	return 0
}

// Last returns l(v), the 1-based last appearance of v, or 0 if absent.
func (t *Seq) Last(v int) int {
	for i := len(t.s) - 1; i >= 0; i-- {
		if t.s[i] == v {
			return i + 1
		}
	}
	return 0
}

// Valid reports whether the sequence is a structurally valid Euler tour:
// even length, arcs at (2k-1, 2k) with distinct endpoints, consecutive arcs
// chained through their shared vertex, and circular closure at the root.
func (t *Seq) Valid() error {
	L := len(t.s)
	if L == 0 {
		return nil
	}
	if L%2 != 0 {
		return fmt.Errorf("odd tour length %d", L)
	}
	for k := 0; 2*k < L; k++ {
		if t.s[2*k] == t.s[2*k+1] {
			return fmt.Errorf("self-arc at positions %d,%d", 2*k+1, 2*k+2)
		}
	}
	for k := 1; 2*k < L; k++ {
		if t.s[2*k-1] != t.s[2*k] {
			return fmt.Errorf("broken chain at position %d", 2*k)
		}
	}
	if t.s[L-1] != t.s[0] {
		return fmt.Errorf("tour not circular: starts %d ends %d", t.s[0], t.s[L-1])
	}
	// Each arc must appear with its reverse exactly once.
	type arc struct{ a, b int }
	count := map[arc]int{}
	for k := 0; 2*k < L; k++ {
		count[arc{t.s[2*k], t.s[2*k+1]}]++
	}
	for a, c := range count {
		if c != 1 || count[arc{a.b, a.a}] != 1 {
			return fmt.Errorf("arc (%d,%d) multiplicity %d", a.a, a.b, c)
		}
	}
	return nil
}

// Render formats the tour with vertex names (index = vertex id) in the
// style of the paper's figures: "[b,c,c,d,...]".
func (t *Seq) Render(names []string) string {
	parts := make([]string, len(t.s))
	for i, v := range t.s {
		if names != nil && v < len(names) {
			parts[i] = names[v]
		} else {
			parts[i] = fmt.Sprintf("%d", v)
		}
	}
	return "[" + strings.Join(parts, ",") + "]"
}

// Brackets formats the [f,l] appearance intervals for the given vertices in
// the style of the paper's figures.
func (t *Seq) Brackets(vertices []int, names []string) string {
	var parts []string
	for _, v := range vertices {
		f, l := t.First(v), t.Last(v)
		if f == 0 {
			continue
		}
		name := fmt.Sprintf("%d", v)
		if names != nil && v < len(names) {
			name = names[v]
		}
		parts = append(parts, fmt.Sprintf("%s[%d,%d]", name, f, l))
	}
	return strings.Join(parts, " ")
}
