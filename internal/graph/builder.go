package graph

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Builder accumulates edges and produces an immutable in-heap Graph.
type Builder struct {
	n int
	// chunks hold the added edges in arrival order, builderChunk to a
	// chunk, so the list grows without copying what it holds.
	chunks [][]builderEdge
	err    error
}

// builderChunk is the number of edges one chunk of a Builder holds.
const builderChunk = 1024

// builderEdge is one added edge, its endpoints ordered u < v.
type builderEdge struct {
	u, v uint32
	w    float64
}

// key orders edges by (u,v) in one comparison.
func (e builderEdge) key() uint64 { return uint64(e.u)<<32 | uint64(e.v) }

// NewBuilder returns a builder for a graph with n nodes labelled 0..n-1.
// A node count below 0 or above math.MaxUint32 is an error that Build
// reports.
func NewBuilder(n int) *Builder {
	if n < 0 || uint64(n) > math.MaxUint32 {
		return &Builder{err: fmt.Errorf("graph: node count %d outside [0,%d]", n, uint64(math.MaxUint32))}
	}
	return &Builder{n: n}
}

// AddEdge records an undirected edge {u, v} with weight 1. Self-loops are
// silently ignored (they do not affect cuts; the paper's Laplacians
// exclude them). Parallel edges accumulate weight.
func (b *Builder) AddEdge(u, v int) { b.AddWeightedEdge(u, v, 1) }

// AddWeightedEdge records an undirected edge {u, v} with weight w > 0.
func (b *Builder) AddWeightedEdge(u, v int, w float64) {
	if b.err != nil {
		return
	}
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		b.err = fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n)
		return
	}
	if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		b.err = fmt.Errorf("graph: edge (%d,%d) has invalid weight %v", u, v, w)
		return
	}
	if u == v {
		return
	}
	if u > v {
		u, v = v, u
	}
	last := len(b.chunks) - 1
	if last < 0 || len(b.chunks[last]) == builderChunk {
		b.chunks = append(b.chunks, make([]builderEdge, 0, builderChunk))
		last++
	}
	b.chunks[last] = append(b.chunks[last], builderEdge{uint32(u), uint32(v), w})
}

// Build assembles the graph, merging parallel edges by summing weights,
// and stores the weights in the narrowest lossless form (none when every
// merged weight is 1). It sorts a copy of the added edges, so the
// builder can take more edges and build again.
func (b *Builder) Build() (*Graph, error) {
	es, form, err := b.merged()
	if err != nil {
		return nil, err
	}
	g := &Graph{kind: KindCompact, n: b.n, m: len(es)}
	g.fill(es, form)
	for _, d := range g.deg {
		g.volume += d
	}
	return g, nil
}

// merged gathers the added edges into one slice, sorts it by (u,v) and
// merges each pair's parallel edges, summing their weights; form is the
// narrowest lossless encoding of the merged weights.
func (b *Builder) merged() (es []builderEdge, form WeightForm, err error) {
	if b.err != nil {
		return nil, 0, b.err
	}
	// The sort is not stable, and it fixes the order in which a pair's
	// weights are summed: it must stay this pdqsort on this key over
	// the arrival order (the comparisons sort.Slice makes, see
	// TestBuildMatchesOracle), or merged weights, and with them
	// snapshot bytes, change in their last bits.
	m := 0
	for _, c := range b.chunks {
		m += len(c)
	}
	es = make([]builderEdge, 0, m)
	for _, c := range b.chunks {
		es = append(es, c...)
	}
	slices.SortFunc(es, func(a, c builderEdge) int { return cmp.Compare(a.key(), c.key()) })
	merged := es[:0]
	form = WeightsUnit
	for i := 0; i < len(es); {
		e := es[i]
		j := i + 1
		for ; j < len(es) && es[j].u == e.u && es[j].v == e.v; j++ {
			e.w += es[j].w
		}
		if math.IsInf(e.w, 0) {
			return nil, 0, fmt.Errorf("graph: edge (%d,%d) merged weight overflows", e.u, e.v)
		}
		form = max(form, weightFormOf(e.w))
		merged = append(merged, e)
		i = j
	}
	return merged, form, nil
}

// fill lays the merged edges es out as g's CSR arrays, the weights in
// form. Every row is strictly ascending by construction: es (u<v) is
// sorted by (u,v), so row x first receives its smaller neighbours
// (edges (u,x), in ascending u, all before any edge that starts at x)
// and then its larger ones (edges (x,v), ascending v). The degrees sum
// each row's weights in that same row order.
func (g *Graph) fill(es []builderEdge, form WeightForm) {
	n := g.n
	// rowPtr[x+1] first counts row x. The prefix sum makes rowPtr[x] row
	// x's start, which then serves as its fill cursor and so ends at row
	// x's end; one shift puts every start back.
	rowPtr := make([]int64, n+1)
	deg := make([]float64, n)
	for _, e := range es {
		rowPtr[e.u+1]++
		rowPtr[e.v+1]++
	}
	for i := 0; i < n; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	adj := make([]uint32, rowPtr[n])
	switch form {
	case WeightsF32:
		g.w32 = make([]float32, rowPtr[n])
	case WeightsF64:
		g.w64 = make([]float64, rowPtr[n])
	}
	for _, e := range es {
		pu, pv := rowPtr[e.u], rowPtr[e.v]
		adj[pu], adj[pv] = e.v, e.u
		if g.w32 != nil {
			g.w32[pu], g.w32[pv] = float32(e.w), float32(e.w)
		} else if g.w64 != nil {
			g.w64[pu], g.w64[pv] = e.w, e.w
		}
		rowPtr[e.u]++
		rowPtr[e.v]++
		deg[e.u] += e.w
		deg[e.v] += e.w
	}
	copy(rowPtr[1:], rowPtr[:n])
	rowPtr[0] = 0
	g.rowPtr, g.adj, g.deg = rowPtr, adj, deg
}
