// Package gstore is graphd's storage subsystem: one graph type, the
// compact CSR Compact (spelled Graph by its readers), served from one
// of two backends:
//
//   - compact — in-heap uint32 adjacency, int64 row pointers and the
//     smallest lossless weight encoding (absent for unit weights,
//     float32 when every weight round-trips, float64 otherwise).
//     graphd's default: what Build makes straight from a graph.Builder
//     (a stream's seal), and what Wrap and NewCompact convert a heap
//     *graph.Graph into (loads and generators).
//   - mmap    — the same layout, but with every array sliced directly
//     out of a memory-mapped GSNAP v2 snapshot
//     (internal/persist.OpenMapped). Loading copies nothing: the
//     kernel's inner loops read straight from the page cache, restarts
//     are near-instant, and concurrent daemons share physical pages.
//
// Sweep cuts, NCP collection and the service layer read a graph
// through N/M/Volume/Degree/Neighbors. The loops that touch every edge
// read the Raw* arrays instead, with one generic loop per stored weight
// type: the push kernels (one dispatch in internal/kernel/csr.go), the
// dense diffusions of internal/diffusion and the snapshot writer.
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
	// KindHeap names the builder's *graph.Graph CSR ([]int +
	// []float64). No backend serves it and ParseKind refuses it; it
	// survives as a benchmark row label.
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

// Graph is the sealed graph every layer above gstore reads: the
// compact CSR, in-heap or mapped. It is an alias, not an interface:
// its methods are direct calls, the loops that read its arrays need no
// type assertion, and a nil Graph is a nil pointer. Its methods are safe for concurrent use; a Compact is
// immutable once constructed.
type Graph = *Compact

// NeighborIter is a by-value cursor over one node's adjacency row.
// The zero value is an exhausted iterator. It is exactly one row's
// slices plus a position — copying it is cheap and restarts nothing.
type NeighborIter struct {
	adj32 []uint32
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

// Next returns the next neighbor and its edge weight, advancing the
// cursor; ok is false when the row is exhausted.
func (it *NeighborIter) Next() (v int, w float64, ok bool) {
	i := it.i
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

// Wrap converts a builder graph to the compact in-heap backend: it is
// NewCompact for callers that hold a graph.Builder result, whose node
// count (at most math.MaxUint32) NewCompact's one error cannot reach.
// It panics if it does.
func Wrap(g *graph.Graph) *Compact {
	c, err := NewCompact(g)
	if err != nil {
		panic(err)
	}
	return c
}

// Materialize returns a heap *graph.Graph copy of g (in-heap or
// mapped); every call copies. The copy reproduces adjacency, weights,
// degrees and volume bit-for-bit (weights were only stored compactly
// when the narrowing was lossless, and graph.FromCSR sums the degrees
// in row order), so an algorithm run on the materialization is
// indistinguishable from one run on the builder's graph. The global
// jobs that need a heap CSR (flow NCP, multilevel partitioning) go
// through this. The error is always nil: g was validated when it was
// decoded, or built by the builder, so it meets FromCSR's precondition
// and is not checked again. The function goes with the heap graph
// (ROADMAP item 13d).
func Materialize(g Graph) (*graph.Graph, error) {
	stats.noteMaterialization()
	rowPtr := make([]int, len(g.rowPtr))
	for i, v := range g.rowPtr {
		rowPtr[i] = int(v)
	}
	adj := make([]int, len(g.adj))
	for i, v := range g.adj {
		adj[i] = int(v)
	}
	w := make([]float64, len(g.adj))
	for i := range w {
		w[i] = g.weightAt(int64(i))
	}
	return graph.FromCSR(rowPtr, adj, w), nil
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
