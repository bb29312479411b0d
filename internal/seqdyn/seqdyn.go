// Package seqdyn implements the centralized (sequential) dynamic graph
// algorithms the paper builds on: Euler-tour trees over treaps,
// Holm–de Lichtenberg–Thorup fully-dynamic connectivity, link-cut trees,
// fully-dynamic minimum spanning forests and Neiman–Solomon-style maximal
// matching.
//
// These serve three roles in the reproduction:
//
//   - as the plug-in targets of the §7 black-box reduction (a sequential
//     algorithm with update time u becomes a DMPC algorithm running O(u)
//     rounds on O(1) machines),
//   - as golden oracles for the native DMPC algorithms, and
//   - as the baselines for the bottom rows of Table 1.
//
// Every structure embeds an operation counter incremented at each
// elementary step (node visit, pointer follow, list touch); the reduction
// charges its simulated rounds from these counts, which is exactly the
// content of Lemma 7.1 ("each access to the memory by SA is simulated by a
// constant number of rounds").
package seqdyn

// Counter tallies elementary operations for the §7 reduction and for the
// benchmark harness. The zero value is ready to use.
type Counter struct {
	n int64
}

// Inc adds k elementary operations.
func (c *Counter) Inc(k int) { c.n += int64(k) }

// Count returns the total so far.
func (c *Counter) Count() int64 { return c.n }
