// Legitimate accessor use: reading, re-slicing, copying out, and
// cloning before modification are all inside the contract.
package fixture

import (
	"repro/internal/graph"
	"repro/internal/gstore"
)

// ReadOnly iterates and indexes without writing.
func ReadOnly(c *gstore.Compact) float64 {
	adj := c.RawAdj()
	var s float64
	for _, a := range adj {
		s += float64(a)
	}
	deg := c.Degrees()
	row := deg[1:2]
	return s + row[0]
}

// CopyOut copies storage into caller-owned memory; only the
// destination matters.
func CopyOut(g *graph.Graph) []float64 {
	w := g.RawWeights64()
	out := make([]float64, len(w))
	copy(out, w)
	return out
}

// CloneThenWrite is the documented pattern for callers that need a
// mutable version.
func CloneThenWrite(g *graph.Graph) []float64 {
	deg := append([]float64(nil), g.Degrees()...)
	deg[0] = 0
	return deg
}

// OwnStorage writes through slices the function allocated itself.
func OwnStorage(n int) []int {
	adj := make([]int, n)
	for i := range adj {
		adj[i] = i
	}
	return adj
}
