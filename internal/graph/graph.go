// Package graph provides the undirected weighted graph substrate that all
// partitioning, diffusion and community-detection code in this repository
// operates on. Graphs are stored in CSR (adjacency-list) form and are
// immutable once built; construction goes through Builder.
//
// Terminology follows the paper: for S ⊆ V, vol(S) (written A(S) in the
// paper) is the sum of degrees of nodes in S, cut(S) is the weight of
// edges with exactly one endpoint in S, and the conductance is
// φ(S) = cut(S) / min(vol(S), vol(V∖S)).
package graph

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Graph is an undirected weighted graph in CSR form. Self-loops are not
// stored. Every undirected edge {u, v} appears in both adjacency lists.
type Graph struct {
	n      int
	rowPtr []int
	adj    []int
	w      []float64
	deg    []float64 // weighted degree of each node
	volume float64   // sum of all weighted degrees = 2 * total edge weight
	edges  int       // number of undirected edges
}

// Builder accumulates edges and produces an immutable Graph, or the
// compact CSR arrays of one (BuildCSR).
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

// Build assembles the graph, merging parallel edges by summing weights.
// It sorts a copy of the added edges, so the builder can take more edges
// and build again.
func (b *Builder) Build() (*Graph, error) {
	es, _, err := b.merged()
	if err != nil {
		return nil, err
	}
	g := &Graph{n: b.n, edges: len(es)}
	g.rowPtr, g.adj, g.w, g.deg = fill[int, int](b.n, es, true)
	for _, d := range g.deg {
		g.volume += d
	}
	return g, nil
}

// BuildCSR is Build for the compact backend: the same graph as the
// arrays of gstore's compact CSR — int64 row pointers, uint32
// adjacency, the weights, nil when every merged weight is 1, and the
// degrees, bit for bit those of Build's graph. gstore.Build wraps them.
func (b *Builder) BuildCSR() (rowPtr []int64, adj []uint32, w, deg []float64, err error) {
	es, unit, err := b.merged()
	if err != nil {
		return nil, nil, nil, nil, err
	}
	rowPtr, adj, w, deg = fill[int64, uint32](b.n, es, !unit)
	return rowPtr, adj, w, deg, nil
}

// merged gathers the added edges into one slice, sorts it by (u,v) and
// merges each pair's parallel edges, summing their weights; unit
// reports that every merged weight is 1.
func (b *Builder) merged() (es []builderEdge, unit bool, err error) {
	if b.err != nil {
		return nil, false, b.err
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
	unit = true
	for i := 0; i < len(es); {
		e := es[i]
		j := i + 1
		for ; j < len(es) && es[j].u == e.u && es[j].v == e.v; j++ {
			e.w += es[j].w
		}
		if math.IsInf(e.w, 0) {
			return nil, false, fmt.Errorf("graph: edge (%d,%d) merged weight overflows", e.u, e.v)
		}
		unit = unit && e.w == 1
		merged = append(merged, e)
		i = j
	}
	return merged, unit, nil
}

// fill lays the merged edges es out as CSR arrays on n nodes, the row
// pointers as P and the neighbour ids as A; the weight array is nil
// unless weighted. Every row is strictly ascending by construction: es
// (u<v) is sorted by (u,v), so row x first receives its smaller
// neighbours (edges (u,x), in ascending u, all before any edge that
// starts at x) and then its larger ones (edges (x,v), ascending v).
// The degrees sum each row's weights in that same row order.
func fill[P int | int64, A int | uint32](n int, es []builderEdge, weighted bool) (rowPtr []P, adj []A, w, deg []float64) {
	// rowPtr[x+1] first counts row x. The prefix sum makes rowPtr[x] row
	// x's start, which then serves as its fill cursor and so ends at row
	// x's end; one shift puts every start back.
	rowPtr = make([]P, n+1)
	deg = make([]float64, n)
	for _, e := range es {
		rowPtr[e.u+1]++
		rowPtr[e.v+1]++
	}
	for i := 0; i < n; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	adj = make([]A, rowPtr[n])
	if weighted {
		w = make([]float64, rowPtr[n])
	}
	for _, e := range es {
		pu, pv := rowPtr[e.u], rowPtr[e.v]
		adj[pu], adj[pv] = A(e.v), A(e.u)
		if weighted {
			w[pu], w[pv] = e.w, e.w
		}
		rowPtr[e.u]++
		rowPtr[e.v]++
		deg[e.u] += e.w
		deg[e.v] += e.w
	}
	copy(rowPtr[1:], rowPtr[:n])
	rowPtr[0] = 0
	return rowPtr, adj, w, deg
}

// CSR returns the graph's raw CSR arrays: rowPtr (length n+1), the
// concatenated adjacency lists (length rowPtr[n] = 2m), and the parallel
// edge weights.
//
// The returned slices are NOT copies: they alias the graph's internal
// storage — every call returns views of the same backing arrays, and
// Neighbors hands out sub-slices of the same adj/w arrays. That is the
// point: gstore.NewCompact reads them with no copy on the way, and the
// dense algorithms walk Neighbors' rows in place. (The diffusion
// kernels and the snapshot writer do not: they take the compact form,
// which BuildCSR emits directly and NewCompact fills from these.) The
// flip side is a strict read-only contract: writing through any of the
// three slices corrupts the graph for every holder. graphlint's
// nomutate analyzer enforces that, and the same discipline for gstore
// accessors, where a mapped graph makes a write a SIGSEGV;
// TestCSRAliasesInternalStorage pins the aliasing itself so a defensive
// copy cannot sneak in and silently change the cost model. FromCSR is
// its inverse.
func (g *Graph) CSR() (rowPtr, adj []int, w []float64) {
	return g.rowPtr, g.adj, g.w
}

// FromCSR rebuilds a Graph directly from CSR arrays, taking ownership of
// the slices. It checks nothing: the arrays must already be a graph as
// Builder makes one — rowPtr anchored at 0 and monotone with rowPtr[n] =
// len(adj) = len(w), rows strictly ascending inside [0,n) with no
// self-loops, weights positive and finite, and every {u,v} present in
// both rows with bit-identical weight. Its one caller,
// gstore.Materialize, holds arrays that gstore validated when it
// decoded them or that a builder built. Degrees are summed in row order, which
// matches Build's edge order, so a Build → CSR → FromCSR round trip
// reproduces the degree and volume floats bit-for-bit.
func FromCSR(rowPtr, adj []int, w []float64) *Graph {
	n := len(rowPtr) - 1
	g := &Graph{n: n, rowPtr: rowPtr, adj: adj, w: w, deg: make([]float64, n), edges: len(adj) / 2}
	for u := 0; u < n; u++ {
		for k := rowPtr[u]; k < rowPtr[u+1]; k++ {
			g.deg[u] += w[k]
		}
	}
	for _, d := range g.deg {
		g.volume += d
	}
	return g
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of undirected edges.
func (g *Graph) M() int { return g.edges }

// Volume returns vol(V) = Σᵢ deg(i) = 2 · (total edge weight).
func (g *Graph) Volume() float64 { return g.volume }

// Degree returns the weighted degree of node u.
func (g *Graph) Degree(u int) float64 { return g.deg[u] }

// Degrees returns the weighted degree vector. The returned slice aliases
// internal storage and must not be modified.
func (g *Graph) Degrees() []float64 { return g.deg }

// Neighbors returns u's neighbor list and the corresponding edge weights.
// Both slices alias internal storage and must not be modified.
func (g *Graph) Neighbors(u int) ([]int, []float64) {
	lo, hi := g.rowPtr[u], g.rowPtr[u+1]
	return g.adj[lo:hi], g.w[lo:hi]
}

// Edges calls fn once per undirected edge with u < v.
func (g *Graph) Edges(fn func(u, v int, w float64)) {
	for u := 0; u < g.n; u++ {
		for k := g.rowPtr[u]; k < g.rowPtr[u+1]; k++ {
			v := g.adj[k]
			if u < v {
				fn(u, v, g.w[k])
			}
		}
	}
}

// Cut returns the total weight of edges with exactly one endpoint in the
// set indicated by inS (a length-n membership slice).
func (g *Graph) Cut(inS []bool) float64 {
	if len(inS) != g.n {
		panic(fmt.Sprintf("graph: Cut membership length %d != %d", len(inS), g.n))
	}
	var c float64
	for u := 0; u < g.n; u++ {
		if !inS[u] {
			continue
		}
		for k := g.rowPtr[u]; k < g.rowPtr[u+1]; k++ {
			if !inS[g.adj[k]] {
				c += g.w[k]
			}
		}
	}
	return c
}

// VolumeOf returns vol(S) = Σ_{i∈S} deg(i) for the membership slice inS.
func (g *Graph) VolumeOf(inS []bool) float64 {
	if len(inS) != g.n {
		panic(fmt.Sprintf("graph: VolumeOf membership length %d != %d", len(inS), g.n))
	}
	var v float64
	for u, in := range inS {
		if in {
			v += g.deg[u]
		}
	}
	return v
}

// Conductance returns φ(S) = cut(S)/min(vol(S), vol(S̄)) for the
// membership slice inS. It returns +Inf for the empty set, the full set,
// or a set with zero boundary-normalizer, matching Eq. (6) of the paper.
func (g *Graph) Conductance(inS []bool) float64 {
	cut := g.Cut(inS)
	volS := g.VolumeOf(inS)
	volC := g.volume - volS
	m := math.Min(volS, volC)
	if m == 0 {
		return math.Inf(1)
	}
	return cut / m
}

// ConductanceOfSet is Conductance for a node-list set representation.
func (g *Graph) ConductanceOfSet(s []int) float64 {
	return g.Conductance(g.Membership(s))
}

// Membership converts a node list into a length-n membership slice.
func (g *Graph) Membership(s []int) []bool {
	in := make([]bool, g.n)
	for _, u := range s {
		if u < 0 || u >= g.n {
			panic(fmt.Sprintf("graph: Membership node %d out of range [0,%d)", u, g.n))
		}
		in[u] = true
	}
	return in
}

// SetOf converts a membership slice into a sorted node list.
func SetOf(inS []bool) []int {
	var s []int
	for u, in := range inS {
		if in {
			s = append(s, u)
		}
	}
	return s
}

// Complement returns the complement of the membership slice.
func Complement(inS []bool) []bool {
	out := make([]bool, len(inS))
	for i, in := range inS {
		out[i] = !in
	}
	return out
}
