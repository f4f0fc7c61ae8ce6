package kernel

import (
	"runtime"

	"repro/internal/gstore"
)

// This file is the one place that knows the storage layout and its
// weight forms. dispatch turns a gstore.Graph, in-heap or mapped, into
// a rows view of its raw CSR arrays and runs the requested operation
// on it; the loops themselves (pushQueue and walkStep in batch.go,
// sweepScan in sweep.go) are methods of rows, written once and
// instantiated by the compiler for each stored weight type (float32,
// or float64 with a nil slice for unit weights). The weight form is
// chosen once per 4096 pushes, walk step or sweep — never per edge.
//
// Bit-parity invariants the loops rely on:
//   - spread*1.0 == spread exactly, so the nil-weight (unit) branch
//     `spread/du` reproduces the weighted branch's `spread*w/du` — and,
//     being loop-invariant, is computed once per row, not per edge.
//     The compact form stores no weight array for a unit graph, so
//     unit graphs run that branch.
//   - float64(float32(w)) == w whenever the compact form chose float32
//     storage (it only narrows losslessly), so widening per edge
//     reproduces the builder's float64 weight.
//   - deg slices are copied bit-for-bit from the builder's graph, so
//     the eps·deg thresholds agree with it.

// wt covers the stored weight types.
type wt interface{ ~float32 | ~float64 }

// rows is a graph's CSR arrays as the loops read them. A nil wts slice
// means unit weights.
type rows[W wt] struct {
	rowPtr []int64
	adj    []uint32
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
	// opSweepScan: the membership set, the order prefix, the visitor.
	inS   []uint64
	order []sweepPair
	visit SweepVisit
}

type opKind uint8

const (
	opPush opKind = iota
	opWalkStep
	opSweepScan
)

// dispatch runs o on g's raw arrays, in the instantiation of g's
// weight form.
func dispatch(g gstore.Graph, o *op) {
	rowPtr, adj, deg := g.RawRowPtr(), g.RawAdj(), g.RawDegrees()
	if w32 := g.RawWeights32(); w32 != nil {
		(&rows[float32]{rowPtr, adj, w32, deg}).run(o)
	} else {
		(&rows[float64]{rowPtr, adj, g.RawWeights64(), deg}).run(o)
	}
	// The raw slices of a mapped graph do not keep g reachable (they
	// point into non-GC memory); without this pin the collector could
	// finalize — unmap — g mid-loop.
	runtime.KeepAlive(g)
}

// run is the second half of dispatch: the operation switch, inside the
// weight-type instantiation dispatch chose.
func (r *rows[W]) run(o *op) {
	switch o.kind {
	case opPush:
		o.paused = r.pushQueue(o.push, o.ws, o.st)
	case opWalkStep:
		r.walkStep(o.ws, o.eps)
	case opSweepScan:
		r.sweepScan(o.inS, o.order, o.visit)
	}
}
