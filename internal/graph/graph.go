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
	"sort"
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

// Builder accumulates edges and produces an immutable Graph.
type Builder struct {
	n   int
	es  []builderEdge // in arrival order, each with u < v
	err error
}

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
	b.es = append(b.es, builderEdge{uint32(u), uint32(v), w})
}

// Build assembles the graph, merging parallel edges by summing weights.
// It sorts a copy of the added edges, so the builder can take more edges
// and build again.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	n := b.n
	// Sort by (u,v) and merge duplicates in sorted order. The sort is not
	// stable, and it fixes the order in which a pair's weights are summed:
	// it must stay this pdqsort on this key (the comparisons sort.Slice
	// makes, see TestBuildMatchesOracle), or merged weights, and with them
	// snapshot bytes, change in their last bits.
	es := slices.Clone(b.es)
	slices.SortFunc(es, func(a, c builderEdge) int { return cmp.Compare(a.key(), c.key()) })
	merged := es[:0]
	for i := 0; i < len(es); {
		e := es[i]
		j := i + 1
		for ; j < len(es) && es[j].u == e.u && es[j].v == e.v; j++ {
			e.w += es[j].w
		}
		if math.IsInf(e.w, 0) {
			return nil, fmt.Errorf("graph: edge (%d,%d) merged weight overflows", e.u, e.v)
		}
		merged = append(merged, e)
		i = j
	}
	es = merged

	// rowPtr[x+1] first counts row x. The prefix sum makes rowPtr[x] row
	// x's start, which then serves as its fill cursor and so ends at row
	// x's end; one shift puts every start back.
	g := &Graph{n: n, rowPtr: make([]int, n+1), deg: make([]float64, n), edges: len(es)}
	rowPtr := g.rowPtr
	for _, e := range es {
		rowPtr[e.u+1]++
		rowPtr[e.v+1]++
	}
	for i := 0; i < n; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	g.adj = make([]int, rowPtr[n])
	g.w = make([]float64, rowPtr[n])
	for _, e := range es {
		u, v := int(e.u), int(e.v)
		g.adj[rowPtr[u]], g.w[rowPtr[u]] = v, e.w
		rowPtr[u]++
		g.adj[rowPtr[v]], g.w[rowPtr[v]] = u, e.w
		rowPtr[v]++
		g.deg[u] += e.w
		g.deg[v] += e.w
	}
	copy(rowPtr[1:], rowPtr[:n])
	rowPtr[0] = 0
	// Every row is strictly ascending by construction: the merged edges
	// (u<v) are sorted by (u,v), so row x first receives its smaller
	// neighbours (edges (u,x), in ascending u, all before any edge that
	// starts at x) and then its larger ones (edges (x,v), ascending v).
	for _, d := range g.deg {
		g.volume += d
	}
	return g, nil
}

// CSR returns the graph's raw CSR arrays: rowPtr (length n+1), the
// concatenated adjacency lists (length rowPtr[n] = 2m), and the parallel
// edge weights.
//
// The returned slices are NOT copies: they alias the graph's internal
// storage — every call returns views of the same backing arrays, and
// Neighbors hands out sub-slices of the same adj/w arrays. That is the
// point: the snapshot writer and gstore.NewCompact read them with no
// copy on the way, and the dense algorithms walk Neighbors' rows in
// place. (The diffusion kernels do not: they run on the compact form,
// whose uint32 arrays NewCompact fills from these.) The flip side is a strict
// read-only contract: writing through any of the three slices corrupts
// the graph for every holder. graphlint's nomutate analyzer enforces
// that, and the same discipline for gstore accessors, where a mapped
// graph makes a write a SIGSEGV; TestCSRAliasesInternalStorage pins the
// aliasing itself so a defensive copy cannot sneak in and silently
// change the cost model. This is the encoding surface of the binary
// snapshot format (internal/persist); FromCSR is its inverse.
func (g *Graph) CSR() (rowPtr, adj []int, w []float64) {
	return g.rowPtr, g.adj, g.w
}

// FromCSR rebuilds a Graph directly from CSR arrays, taking ownership of
// the slices. It validates every structural invariant Build guarantees —
// rowPtr monotone and anchored at 0, neighbor lists strictly ascending
// (no self-loops, no duplicates), weights positive and finite, and exact
// symmetry (every {u,v} present in both rows with bit-identical weight) —
// so that a graph decoded from an untrusted snapshot is indistinguishable
// from one assembled by Builder. Degrees are accumulated in row order,
// which matches Build's edge order, so a Build → CSR → FromCSR round
// trip reproduces the degree and volume floats bit-for-bit.
func FromCSR(rowPtr, adj []int, w []float64) (*Graph, error) {
	if len(rowPtr) < 1 {
		return nil, fmt.Errorf("graph: FromCSR: rowPtr is empty")
	}
	n := len(rowPtr) - 1
	if rowPtr[0] != 0 {
		return nil, fmt.Errorf("graph: FromCSR: rowPtr[0] = %d, want 0", rowPtr[0])
	}
	for i := 0; i < n; i++ {
		if rowPtr[i+1] < rowPtr[i] {
			return nil, fmt.Errorf("graph: FromCSR: rowPtr decreases at %d (%d -> %d)", i, rowPtr[i], rowPtr[i+1])
		}
	}
	if rowPtr[n] != len(adj) {
		return nil, fmt.Errorf("graph: FromCSR: rowPtr[n] = %d but len(adj) = %d", rowPtr[n], len(adj))
	}
	if len(w) != len(adj) {
		return nil, fmt.Errorf("graph: FromCSR: len(w) = %d but len(adj) = %d", len(w), len(adj))
	}
	if len(adj)%2 != 0 {
		return nil, fmt.Errorf("graph: FromCSR: odd entry count %d cannot be symmetric", len(adj))
	}
	g := &Graph{n: n, rowPtr: rowPtr, adj: adj, w: w, deg: make([]float64, n), edges: len(adj) / 2}
	pairs := 0
	for u := 0; u < n; u++ {
		prev := -1
		for k := rowPtr[u]; k < rowPtr[u+1]; k++ {
			v := adj[k]
			if v < 0 || v >= n {
				return nil, fmt.Errorf("graph: FromCSR: neighbor %d of node %d out of range [0,%d)", v, u, n)
			}
			if v == u {
				return nil, fmt.Errorf("graph: FromCSR: self-loop at node %d", u)
			}
			if v <= prev {
				return nil, fmt.Errorf("graph: FromCSR: row %d not strictly ascending at entry %d", u, k-rowPtr[u])
			}
			prev = v
			wt := w[k]
			if wt <= 0 || math.IsNaN(wt) || math.IsInf(wt, 0) {
				return nil, fmt.Errorf("graph: FromCSR: edge (%d,%d) has invalid weight %v", u, v, wt)
			}
			g.deg[u] += wt
			if u < v {
				// Symmetry: the mirror entry must exist with the same bits.
				mw, ok := g.HasEdge(v, u)
				if !ok || mw != wt {
					return nil, fmt.Errorf("graph: FromCSR: edge (%d,%d) weight %v has no symmetric mirror", u, v, wt)
				}
				pairs++
			}
		}
	}
	if 2*pairs != len(adj) {
		return nil, fmt.Errorf("graph: FromCSR: %d upper-triangle edges cannot cover %d entries", pairs, len(adj))
	}
	for _, d := range g.deg {
		g.volume += d
	}
	return g, nil
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

// HasEdge reports whether the undirected edge {u, v} exists, and its
// weight.
func (g *Graph) HasEdge(u, v int) (float64, bool) {
	lo, hi := g.rowPtr[u], g.rowPtr[u+1]
	k := lo + sort.SearchInts(g.adj[lo:hi], v)
	if k < hi && g.adj[k] == v {
		return g.w[k], true
	}
	return 0, false
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
