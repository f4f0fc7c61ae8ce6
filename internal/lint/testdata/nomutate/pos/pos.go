// Violations of the storage read-only contract: writes through
// accessor results that alias graph storage (for the mmap backend, a
// read-only mapping).
package fixture

import (
	"repro/internal/graph"
	"repro/internal/gstore"
)

// BoundWrite writes through a variable bound to an accessor result.
func BoundWrite(c *gstore.Compact) {
	adj := c.RawAdj()
	adj[0] = 1 // want `write through Compact.RawAdj`
}

// DirectWrite indexes the accessor call itself.
func DirectWrite(c *gstore.Compact) {
	c.RawDegrees()[2] = 0 // want `write through Compact.RawDegrees`
}

// SubSliceWrite writes through a re-slice of an accessor result, which
// still aliases the same backing array.
func SubSliceWrite(c *gstore.Compact) {
	row := c.RawRowPtr()[1:3]
	row[0]++ // want `write through Compact.RawRowPtr`
}

// ChainedTaint re-slices a tainted variable; the alias survives.
func ChainedTaint(c *gstore.Compact) {
	w := c.RawWeights64()
	head := w[:4]
	head[3] = 2.5 // want `write through Compact.RawWeights64`
}

// CSRWrite mutates two of the three CSR views, including with op=.
func CSRWrite(g *graph.Graph) {
	rowPtr, adj, w := g.CSR()
	_ = rowPtr
	adj[0] = 2 // want `write through Graph.CSR`
	w[0] += 1  // want `write through Graph.CSR`
}

// HeapRawWrite mutates the heap backend's kernel view.
func HeapRawWrite(h gstore.Heap) {
	_, adj, _, deg := h.RawCSR()
	adj[0] = 2 // want `write through Heap.RawCSR`
	deg[0] = 0 // want `write through Heap.RawCSR`
}

// DegreesRangeWrite zeroes the degree array in a range loop.
func DegreesRangeWrite(g *graph.Graph) {
	deg := g.Degrees()
	for i := range deg {
		deg[i] = 0 // want `write through Graph.Degrees`
	}
}

// NeighborsWrite mutates a row handed out by Neighbors.
func NeighborsWrite(g *graph.Graph) {
	nbrs, _ := g.Neighbors(0)
	nbrs[0] = 9 // want `write through Graph.Neighbors`
}

// CopyInto uses copy with an accessor result as destination.
func CopyInto(c *gstore.Compact) {
	copy(c.RawWeights32(), []float32{1}) // want `copy into Compact.RawWeights32`
}

// AppendTo appends to an accessor result: when capacity allows, append
// writes the shared backing array in place.
func AppendTo(g *graph.Graph) []float64 {
	return append(g.Degrees(), 1) // want `append to Graph.Degrees`
}
