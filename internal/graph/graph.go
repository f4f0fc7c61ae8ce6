// Package graph provides the undirected weighted graph substrate that all
// partitioning, diffusion and community-detection code in this repository
// operates on: one compact CSR type, Graph, immutable once built. A
// Builder makes one on the Go heap; FromParts validates the arrays of a
// snapshot, read onto the heap or sliced out of a read-only memory
// mapping (internal/persist), into one.
//
// Terminology follows the paper: for S ⊆ V, vol(S) (written A(S) in the
// paper) is the sum of degrees of nodes in S, cut(S) is the weight of
// edges with exactly one endpoint in S, and the conductance is
// φ(S) = cut(S) / min(vol(S), vol(V∖S)).
//
// Mutation contract: every slice an accessor returns aliases the
// graph's storage, which for a mapped graph is a read-only mapping
// where a write is a SIGSEGV, not a race. Nothing outside this package
// may write through one; graphlint's nomutate analyzer enforces it.
package graph

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// Kind names where a graph's arrays live. The names are wire-stable:
// they surface as api.GraphInfo.Backend and as the graphd -backend flag.
type Kind string

const (
	// KindCompact: the arrays are on the Go heap (a Builder's graph, or
	// a snapshot read into memory).
	KindCompact Kind = "compact"
	// KindMmap: the arrays are sliced out of a read-only memory mapping
	// of a GSNAP v2 snapshot.
	KindMmap Kind = "mmap"
)

// Graph is an undirected weighted graph in compact CSR form: int64 row
// pointers, uint32 adjacency, float64 degrees and the narrowest lossless
// weight array. Self-loops are not stored, and every undirected edge
// {u, v} appears in both rows, each row strictly ascending. Its methods
// are safe for concurrent use.
type Graph struct {
	kind      Kind
	n         int
	m         int
	rowPtr    []int64 // length n+1
	adj       []uint32
	w32       []float32 // at most one of w32/w64 non-nil; both nil ⇒ unit
	w64       []float64
	deg       []float64 // length n, the row-order sum of each row's weights
	volume    float64
	closer    func() error // munmap for mapped graphs; nil otherwise
	closeOnce sync.Once
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of undirected edges.
func (g *Graph) M() int { return g.m }

// Volume returns vol(V) = Σᵢ deg(i) = 2 · (total edge weight).
func (g *Graph) Volume() float64 { return g.volume }

// Degree returns the weighted degree of node u.
func (g *Graph) Degree(u int) float64 { return g.deg[u] }

// Degrees returns the weighted degree vector (length n). Read-only.
func (g *Graph) Degrees() []float64 { return g.deg }

// Neighbors returns the zero-alloc cursor over u's row, ascending.
func (g *Graph) Neighbors(u int) NeighborIter {
	lo, hi := g.rowPtr[u], g.rowPtr[u+1]
	it := NeighborIter{adj32: g.adj[lo:hi], pin: g}
	if g.w64 != nil {
		it.w64 = g.w64[lo:hi]
	} else if g.w32 != nil {
		it.w32 = g.w32[lo:hi]
	}
	return it
}

// Backend reports KindCompact or KindMmap.
func (g *Graph) Backend() Kind { return g.kind }

// RawRowPtr exposes the row-pointer array (length n+1) for the loops
// that touch every edge. Read-only.
func (g *Graph) RawRowPtr() []int64 { return g.rowPtr }

// RawAdj exposes the adjacency array (length 2m). Read-only.
func (g *Graph) RawAdj() []uint32 { return g.adj }

// RawWeights32 exposes the float32 weight array, nil unless the
// weights are stored as float32. Read-only.
func (g *Graph) RawWeights32() []float32 { return g.w32 }

// RawWeights64 exposes the float64 weight array, nil unless the
// weights are stored as float64 (nil together with RawWeights32 means
// unit weights). Read-only.
func (g *Graph) RawWeights64() []float64 { return g.w64 }

// Close releases the backing mapping, if any. Idempotent and safe for
// concurrent use: the first call returns the unmap error, later calls
// return nil, and so does a nil graph's (a streaming graph has none
// yet). After Close on a mapped graph, every slice previously obtained
// from it is dead.
func (g *Graph) Close() error {
	if g == nil {
		return nil
	}
	var err error
	g.closeOnce.Do(func() {
		runtime.SetFinalizer(g, nil)
		if g.closer != nil {
			err = g.closer()
			g.closer = nil
		}
	})
	return err
}

// Edges calls fn once per undirected edge with u < v.
func (g *Graph) Edges(fn func(u, v int, w float64)) {
	for u := 0; u < g.n; u++ {
		it := g.Neighbors(u)
		for v, w, ok := it.Next(); ok; v, w, ok = it.Next() {
			if u < v {
				fn(u, v, w)
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
		it := g.Neighbors(u)
		for v, w, ok := it.Next(); ok; v, w, ok = it.Next() {
			if !inS[v] {
				c += w
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
	runtime.KeepAlive(g) // deg may be a mapping the finalizer unmaps
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
