package kernel

import (
	"fmt"
	"runtime"

	"repro/internal/gstore"
)

// This file is the one place that knows which storage backends and
// weight forms exist. dispatch turns a gstore.Graph into a rows view —
// the raw CSR arrays — and runs the requested operation on it; the
// loops themselves (pushQueue and walkStep in batch.go, sweepScan in
// sweep.go) are methods of rows, written once and monomorphized by the
// compiler for each backend's element types (heap []int/[]float64,
// compact/mmap []int64/[]uint32 with float64/float32/absent weights).
// One type switch runs per 4096 pushes, walk step or sweep — never per
// edge.
//
// Bit-parity invariants the loops rely on:
//   - spread*1.0 == spread exactly, so the nil-weight (unit) branch
//     `spread/du` reproduces the weighted branch's `spread*w/du` — and,
//     being loop-invariant, is computed once per row, not per edge.
//     Both the compact backend (no weight array at all) and the heap
//     backend (gstore.Heap.RawCSR hands out a nil slice when
//     graph.Graph.UnitWeights) serve unit graphs through that branch.
//   - float64(float32(w)) == w whenever the compact backend chose
//     float32 storage (it only narrows losslessly), so widening per
//     edge reproduces the original float64 weight.
//   - deg slices are copied bit-for-bit from the heap graph, so the
//     eps·deg thresholds agree across backends.

// ix covers the index element types of the backends' CSR arrays, wt the
// stored weight types.
type (
	ix interface{ ~int | ~int64 | ~uint32 }
	wt interface{ ~float32 | ~float64 }
)

// rows is a backend's CSR arrays as the loops read them. A nil wts
// slice means unit weights.
type rows[P ix, A ix, W wt] struct {
	rowPtr []P
	adj    []A
	wts    []W
	deg    []float64
}

// op names one operation for dispatch and carries its operands. It is
// passed by pointer and lives in the caller's frame, so a dispatch
// allocates nothing.
type op struct {
	kind opKind
	// opPush: the seeded workspace (queue filled) and its Stats; paused
	// reports that the loop returned with the queue not yet drained.
	// opWalkStep: the workspace and eps.
	push   PushACL
	paused bool
	ws     *Workspace
	st     *Stats
	eps    float64
	// opSweepScan: the membership plane, the order prefix, the visitor.
	inS   *plane
	order []sweepPair
	visit SweepVisit
}

type opKind uint8

const (
	opPush opKind = iota
	opWalkStep
	opSweepScan
)

// dispatch runs o on g's concrete representation. A backend it does
// not know is an error: there is no iterator fallback.
func dispatch(g gstore.Graph, o *op) error {
	switch t := g.(type) {
	case gstore.Heap:
		rowPtr, adj, wts, deg := t.RawCSR()
		(&rows[int, int, float64]{rowPtr, adj, wts, deg}).run(o)
	case *gstore.Compact:
		rowPtr, adj, deg := t.RawRowPtr(), t.RawAdj(), t.RawDegrees()
		if w32 := t.RawWeights32(); w32 != nil {
			(&rows[int64, uint32, float32]{rowPtr, adj, w32, deg}).run(o)
		} else {
			(&rows[int64, uint32, float64]{rowPtr, adj, t.RawWeights64(), deg}).run(o)
		}
		// The raw slices of a mapped graph do not keep t reachable
		// (they point into non-GC memory); without this pin the
		// collector could finalize — unmap — t mid-loop.
		runtime.KeepAlive(t)
	default:
		return fmt.Errorf("kernel: unsupported backend %T", g)
	}
	return nil
}

// run is the second half of dispatch: the operation switch, inside the
// instantiation the type switch chose.
func (r *rows[P, A, W]) run(o *op) {
	switch o.kind {
	case opPush:
		o.paused = r.pushQueue(o.push, o.ws, o.st)
	case opWalkStep:
		r.walkStep(o.ws, o.eps)
	case opSweepScan:
		r.sweepScan(o.inS, o.order, o.visit)
	}
}
