// Violations of the storage read-only contract: writes through
// accessor results that alias graph storage (for the mmap backend, a
// read-only mapping). graph.Graph and gstore.Compact name one type, and
// both spellings are caught.
package fixture

import (
	"repro/internal/graph"
	"repro/internal/gstore"
)

// BoundWrite writes through a variable bound to an accessor result.
func BoundWrite(c *gstore.Compact) {
	adj := c.RawAdj()
	adj[0] = 1 // want `write through Graph.RawAdj`
}

// DirectWrite indexes the accessor call itself.
func DirectWrite(c *gstore.Compact) {
	c.Degrees()[2] = 0 // want `write through Graph.Degrees`
}

// SubSliceWrite writes through a re-slice of an accessor result, which
// still aliases the same backing array.
func SubSliceWrite(c *gstore.Compact) {
	row := c.RawRowPtr()[1:3]
	row[0]++ // want `write through Graph.RawRowPtr`
}

// ChainedTaint re-slices a tainted variable; the alias survives.
func ChainedTaint(c *gstore.Compact) {
	w := c.RawWeights64()
	head := w[:4]
	head[3] = 2.5 // want `write through Graph.RawWeights64`
}

// ParallelBind binds two accessor results in one statement and
// mutates both, including with op=.
func ParallelBind(g *graph.Graph) {
	adj, w := g.RawAdj(), g.RawWeights64()
	adj[0] = 2 // want `write through Graph.RawAdj`
	w[0] += 1  // want `write through Graph.RawWeights64`
}

// VarDeclWrite binds an accessor result in a var declaration.
func VarDeclWrite(g *graph.Graph) {
	var w32 = g.RawWeights32()
	w32[1] = 3 // want `write through Graph.RawWeights32`
}

// DegreesRangeWrite zeroes the degree array in a range loop.
func DegreesRangeWrite(g *graph.Graph) {
	deg := g.Degrees()
	for i := range deg {
		deg[i] = 0 // want `write through Graph.Degrees`
	}
}

// CopyInto uses copy with an accessor result as destination.
func CopyInto(c *gstore.Compact) {
	copy(c.RawWeights32(), []float32{1}) // want `copy into Graph.RawWeights32`
}

// AppendTo appends to an accessor result: when capacity allows, append
// writes the shared backing array in place.
func AppendTo(g *graph.Graph) []float64 {
	return append(g.Degrees(), 1) // want `append to Graph.Degrees`
}
