// Package gstore is graphd's storage subsystem: one small read
// interface over a sealed CSR graph, with three interchangeable
// backends behind it. graphd serves every graph from the last two;
// the heap backend is for in-process callers holding a built graph.
//
//   - heap    — the builder's *graph.Graph ([]int adjacency, []float64
//     weights), wrapped by Heap: 8 bytes per adjacency entry plus 8
//     per weight.
//   - compact — Compact with in-heap uint32 adjacency and the smallest
//     lossless weight encoding (absent for unit weights, float32 when
//     every weight round-trips, float64 otherwise). Roughly a third of
//     the heap footprint on unweighted graphs; graphd's default.
//   - mmap    — the same Compact layout, but with every array sliced
//     directly out of a memory-mapped GSNAP v2 snapshot
//     (internal/persist.OpenMapped). Loading copies nothing: the
//     kernel's inner loops read straight from the page cache, restarts
//     are near-instant, and concurrent daemons share physical pages.
//
// The interface is deliberately tiny — N/M/Volume/Degree/Neighbors —
// because the diffusion kernels of internal/kernel do not go through
// it on the hot path: one dispatch (internal/kernel/csr.go) switches on
// the concrete backend and runs monomorphized generic loops over the
// raw arrays. The interface is the contract for everything around the
// kernels: sweep cuts, NCP collection, the service layer.
//
// Mutation contract: every slice reachable through a backend aliases
// the graph's storage — for the mmap backend it aliases a read-only
// mapping, where a write is a SIGSEGV, not a race. Nothing outside
// this package may write through an accessor result; graphlint's
// `nomutate` analyzer enforces this mechanically.
package gstore

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

// Kind names a storage backend. The serving kinds, compact and mmap,
// are wire-stable: they surface as api.GraphInfo.Backend and as the
// graphd -backend flag.
type Kind string

const (
	// KindHeap is the builder's *graph.Graph CSR ([]int + []float64).
	// It is not a serving kind: ParseKind refuses it.
	KindHeap Kind = "heap"
	// KindCompact is the in-heap compact CSR (uint32 adjacency,
	// smallest lossless weight form).
	KindCompact Kind = "compact"
	// KindMmap is the compact CSR served directly off a memory-mapped
	// GSNAP v2 snapshot.
	KindMmap Kind = "mmap"
)

// ParseKind validates a serving-backend name ("" means compact).
func ParseKind(s string) (Kind, error) {
	switch Kind(s) {
	case "", KindCompact:
		return KindCompact, nil
	case KindMmap:
		return KindMmap, nil
	}
	return "", fmt.Errorf("gstore: unknown backend %q (want compact or mmap)", s)
}

// Graph is the read interface every storage backend implements. All
// methods are safe for concurrent use; implementations are immutable
// once constructed.
//
// Neighbors returns a by-value cursor rather than slices so that a
// backend whose adjacency is not []int (compact, mmap) can be iterated
// without converting — and without allocating: the cursor is a small
// struct returned by value, and its Next method is a concrete,
// inlinable call.
type Graph interface {
	// N returns the number of nodes.
	N() int
	// M returns the number of undirected edges.
	M() int
	// Volume returns vol(V) = Σᵢ deg(i).
	Volume() float64
	// Degree returns the weighted degree of node u.
	Degree(u int) float64
	// Neighbors returns a zero-alloc iterator over u's neighbors in
	// ascending id order with their edge weights.
	Neighbors(u int) NeighborIter
	// Backend reports which storage backend serves this graph.
	Backend() Kind
}

// NeighborIter is a by-value cursor over one node's adjacency row.
// The zero value is an exhausted iterator. It is exactly one row's
// slices plus a position — copying it is cheap and restarts nothing.
type NeighborIter struct {
	// Exactly one of adjInt/adj32 is non-nil (unless the row is empty).
	adjInt []int
	adj32  []uint32
	// At most one of w64/w32 is non-nil; both nil means unit weights.
	w64 []float64
	w32 []float32
	i   int
	// pin keeps the backing Compact reachable while the cursor lives:
	// a mapped graph's row slices point into non-GC memory, so without
	// this reference the collector could finalize (unmap) the graph
	// between the caller's last use of it and the cursor's last Next.
	pin *Compact
}

// Len returns the number of entries remaining.
func (it *NeighborIter) Len() int {
	if it.adjInt != nil {
		return len(it.adjInt) - it.i
	}
	return len(it.adj32) - it.i
}

// Next returns the next neighbor and its edge weight, advancing the
// cursor; ok is false when the row is exhausted.
func (it *NeighborIter) Next() (v int, w float64, ok bool) {
	i := it.i
	if it.adjInt != nil {
		if i >= len(it.adjInt) {
			return 0, 0, false
		}
		it.i = i + 1
		return it.adjInt[i], it.w64[i], true
	}
	if i >= len(it.adj32) {
		return 0, 0, false
	}
	it.i = i + 1
	w = 1
	if it.w64 != nil {
		w = it.w64[i]
	} else if it.w32 != nil {
		w = float64(it.w32[i])
	}
	return int(it.adj32[i]), w, true
}

// Heap adapts a *graph.Graph to the backend interface. It is
// pointer-shaped (a single pointer field), so converting a Heap to the
// Graph interface never allocates.
type Heap struct {
	g *graph.Graph
}

// Wrap adapts a heap CSR graph to the backend interface.
func Wrap(g *graph.Graph) Heap { return Heap{g: g} }

// Unwrap returns the underlying heap graph.
func (h Heap) Unwrap() *graph.Graph { return h.g }

// RawCSR returns the heap graph's raw CSR arrays and degree vector for
// the kernels' backend dispatch (internal/kernel/csr.go), with one
// twist: wts is nil when every weight is exactly 1.0. A nil weight
// slice is the loops' "unit" form — the one the compact backend
// already serves unit graphs in — so the heap backend then never
// streams its 8-byte-per-edge array of ones. The slices alias the
// graph's storage (see graph.Graph.CSR) and must not be written.
func (h Heap) RawCSR() (rowPtr, adj []int, wts, deg []float64) {
	rowPtr, adj, wts = h.g.CSR()
	if h.g.UnitWeights() {
		wts = nil
	}
	return rowPtr, adj, wts, h.g.Degrees()
}

// N returns the number of nodes.
func (h Heap) N() int { return h.g.N() }

// M returns the number of undirected edges.
func (h Heap) M() int { return h.g.M() }

// Volume returns vol(V).
func (h Heap) Volume() float64 { return h.g.Volume() }

// Degree returns the weighted degree of u.
func (h Heap) Degree(u int) float64 { return h.g.Degree(u) }

// Neighbors returns the zero-alloc cursor over u's row.
func (h Heap) Neighbors(u int) NeighborIter {
	nbrs, wts := h.g.Neighbors(u)
	return NeighborIter{adjInt: nbrs, w64: wts}
}

// Backend reports KindHeap.
func (h Heap) Backend() Kind { return KindHeap }

// Materialize returns a heap *graph.Graph equivalent to g: the
// identity for a Heap backend, a validated copy for a Compact (in-heap
// or mapped). The copy reproduces adjacency, weights, degrees and
// volume bit-for-bit (weights were only stored compactly when the
// narrowing was lossless), so a dense algorithm run on the
// materialization is indistinguishable from one run on the original
// heap graph. Global paths that need raw CSR slices (dense diffusion,
// flow NCP, multilevel partitioning) go through this.
func Materialize(g Graph) (*graph.Graph, error) {
	switch t := g.(type) {
	case Heap:
		return t.g, nil
	case *Compact:
		stats.noteMaterialization()
		return t.materialize()
	}
	return nil, fmt.Errorf("gstore: materialize: unsupported backend %T", g)
}

// Close releases backend resources (the mmap backend's mapping). It is
// a no-op for backends that hold only ordinary heap memory. After
// Close, the mmap backend's slices must not be touched.
func Close(g Graph) error {
	if c, ok := g.(*Compact); ok {
		return c.Close()
	}
	return nil
}

// VolumeOfSet returns vol(S) = Σ_{u∈S} deg(u) for a node-list set.
// The sum is accumulated in ascending node order — the same order
// graph.Graph.VolumeOf uses over a membership slice — so the float
// result is bit-identical to the heap path whatever order the caller's
// set is in. Duplicate or out-of-range nodes panic, matching
// graph.Membership.
func VolumeOfSet(g Graph, set []int) float64 {
	sorted := append([]int(nil), set...)
	sort.Ints(sorted)
	var vol float64
	for i, u := range sorted {
		if u < 0 || u >= g.N() {
			panic(fmt.Sprintf("gstore: VolumeOfSet node %d out of range [0,%d)", u, g.N()))
		}
		if i > 0 && sorted[i-1] == u {
			panic(fmt.Sprintf("gstore: VolumeOfSet duplicate node %d", u))
		}
		vol += g.Degree(u)
	}
	return vol
}
