// Package gstore is graphd's storage subsystem over the one graph
// type, graph.Graph (spelled Compact and Graph here), served from one of
// two backends:
//
//   - compact — in-heap uint32 adjacency, int64 row pointers and the
//     smallest lossless weight encoding (absent for unit weights,
//     float32 when every weight round-trips, float64 otherwise).
//     graphd's default: what graph.Builder makes (loads, generators and
//     a stream's seal), and what a snapshot decodes into.
//   - mmap    — the same layout, but with every array sliced directly
//     out of a memory-mapped GSNAP v2 snapshot
//     (internal/persist.OpenMapped). Loading copies nothing: the
//     kernel's inner loops read straight from the page cache, restarts
//     are near-instant, and concurrent daemons share physical pages.
//
// gstore owns the backend names, the validation entry point for
// snapshot arrays (NewCompactFromParts, with its telemetry and the
// mapping's finalizer) and the storage counters graphd exports.
package gstore

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

// Kind names a storage backend. The serving kinds, compact and mmap,
// are wire-stable: they surface as api.GraphInfo.Backend and as the
// graphd -backend flag.
type Kind = graph.Kind

const (
	// KindHeap names no backend: ParseKind refuses it, and it survives
	// only as a benchmark row label until bench/ stops naming it.
	KindHeap Kind = "heap"
	// KindCompact is the in-heap compact CSR.
	KindCompact = graph.KindCompact
	// KindMmap is the compact CSR served directly off a memory-mapped
	// GSNAP v2 snapshot.
	KindMmap = graph.KindMmap
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

// Compact is the graph type under its storage name.
type Compact = graph.Graph

// Graph is the sealed graph every layer above gstore reads: the
// compact CSR, in-heap or mapped. A nil Graph is a nil pointer.
type Graph = *Compact

// Wrap, NewCompact and Materialize are identities that keep bench/
// compiling until it stops naming them; nothing else may call them.
func Wrap(g *graph.Graph) *Compact { return g }

// NewCompact is Wrap with an error (always nil).
func NewCompact(g *graph.Graph) (*Compact, error) { return g, nil }

// Materialize is Wrap with an error (always nil).
func Materialize(g Graph) (*graph.Graph, error) { return g, nil }

// VolumeOfSet returns vol(S) = Σ_{u∈S} deg(u) for a node-list set.
// The sum is accumulated in ascending node order — the same order
// graph.Graph.VolumeOf uses over a membership slice — so the float
// result is the same whatever order the caller's set is in. Duplicate
// or out-of-range nodes panic, matching graph.Membership.
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
