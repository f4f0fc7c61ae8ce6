package kernel

import (
	"runtime"

	"repro/internal/gstore"
)

// This file is the hot path of every diffusion: the push and walk-step
// inner loops, written once as generic functions over raw CSR arrays
// and monomorphized by the compiler for each backend's element types
// (heap []int/[]float64, compact/mmap []int64/[]uint32 with
// float64/float32/absent weights). The dispatch below runs one type
// switch per diffusion (push) or per step (walk) — never per edge —
// so the heap instantiation is the same machine loop the pre-gstore
// code compiled to, which is what keeps the push benchmark inside the
// 10% budget the interface-per-edge alternative would blow.
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

// ix covers the index element types of the three backends' CSR arrays.
type ix interface {
	~int | ~int64 | ~uint32
}

// pushOn runs the ACL push loop on g's concrete representation. The
// queue must already be seeded; returns Pushes/WorkVolume only.
func pushOn(d PushACL, g gstore.Graph, ws *Workspace) Stats {
	switch t := g.(type) {
	case gstore.Heap:
		rowPtr, adj, wts, deg := t.RawCSR()
		return pushCSR(d, ws, rowPtr, adj, wts, deg)
	case *gstore.Compact:
		rowPtr, adj, deg := t.RawRowPtr(), t.RawAdj(), t.RawDegrees()
		var st Stats
		if w64 := t.RawWeights64(); w64 != nil {
			st = pushCSR(d, ws, rowPtr, adj, w64, deg)
		} else if w32 := t.RawWeights32(); w32 != nil {
			st = pushCSR(d, ws, rowPtr, adj, w32, deg)
		} else {
			st = pushCSR(d, ws, rowPtr, adj, []float64(nil), deg)
		}
		// The raw slices of a mapped graph do not keep t reachable
		// (they point into non-GC memory); without this pin the
		// collector could finalize — unmap — t mid-loop.
		runtime.KeepAlive(t)
		return st
	default:
		return pushIter(d, g, ws)
	}
}

// pushCSR is the monomorphized ACL push loop. A nil wts slice means
// unit weights; the branch is hoisted out of the per-edge loop.
func pushCSR[P ix, A ix, W ~float32 | ~float64](d PushACL, ws *Workspace, rowPtr []P, adj []A, wts []W, deg []float64) Stats {
	var st Stats
	unit := len(wts) == 0
	for {
		u, ok := ws.q.pop()
		if !ok {
			break
		}
		du := deg[u]
		if du == 0 {
			// Isolated node: its residual can only go to p.
			ws.p.add(u, ws.r.get(u))
			ws.r.set(u, 0)
			continue
		}
		ru := ws.r.get(u)
		if ru < d.Eps*du {
			continue
		}
		ws.p.add(u, d.Alpha*ru)
		keep := (1 - d.Alpha) * ru / 2
		ws.r.set(u, keep)
		if keep >= d.Eps*du {
			ws.q.push(u)
		}
		spread := (1 - d.Alpha) * ru / 2
		// Ranging over row subslices (not indexing adj[lo:hi] in place)
		// lets the compiler drop the per-edge bounds checks, matching
		// the pre-gstore loop's code shape.
		lo, hi := int(rowPtr[u]), int(rowPtr[u+1])
		if unit {
			share := spread / du
			for _, a := range adj[lo:hi] {
				v := int(a)
				rv := ws.r.get(v) + share
				ws.r.set(v, rv)
				if rv >= d.Eps*deg[v] {
					ws.q.push(v)
				}
			}
		} else {
			row, wrow := adj[lo:hi], wts[lo:hi]
			for k, a := range row {
				v := int(a)
				rv := ws.r.get(v) + spread*float64(wrow[k])/du
				ws.r.set(v, rv)
				if rv >= d.Eps*deg[v] {
					ws.q.push(v)
				}
			}
		}
		st.Pushes++
		st.WorkVolume += du
	}
	return st
}

// pushIter is the iterator fallback for backends csr.go does not know.
func pushIter(d PushACL, g gstore.Graph, ws *Workspace) Stats {
	var st Stats
	for {
		u, ok := ws.q.pop()
		if !ok {
			break
		}
		du := g.Degree(u)
		if du == 0 {
			ws.p.add(u, ws.r.get(u))
			ws.r.set(u, 0)
			continue
		}
		ru := ws.r.get(u)
		if ru < d.Eps*du {
			continue
		}
		ws.p.add(u, d.Alpha*ru)
		keep := (1 - d.Alpha) * ru / 2
		ws.r.set(u, keep)
		if keep >= d.Eps*du {
			ws.q.push(u)
		}
		spread := (1 - d.Alpha) * ru / 2
		it := g.Neighbors(u)
		for v, w, ok := it.Next(); ok; v, w, ok = it.Next() {
			rv := ws.r.get(v) + spread*w/du
			ws.r.set(v, rv)
			if rv >= d.Eps*g.Degree(v) {
				ws.q.push(v)
			}
		}
		st.Pushes++
		st.WorkVolume += du
	}
	return st
}

// walkStepOn advances the R plane one truncated lazy-walk step on g's
// concrete representation.
func walkStepOn(g gstore.Graph, ws *Workspace, eps float64) {
	switch t := g.(type) {
	case gstore.Heap:
		rowPtr, adj, wts, deg := t.RawCSR()
		walkStepCSR(ws, eps, rowPtr, adj, wts, deg)
	case *gstore.Compact:
		rowPtr, adj, deg := t.RawRowPtr(), t.RawAdj(), t.RawDegrees()
		if w64 := t.RawWeights64(); w64 != nil {
			walkStepCSR(ws, eps, rowPtr, adj, w64, deg)
		} else if w32 := t.RawWeights32(); w32 != nil {
			walkStepCSR(ws, eps, rowPtr, adj, w32, deg)
		} else {
			walkStepCSR(ws, eps, rowPtr, adj, []float64(nil), deg)
		}
		runtime.KeepAlive(t) // see pushOn: the slices alone don't pin t
	default:
		walkStepIter(g, ws, eps)
	}
}

// walkStepCSR is the monomorphized walk step: spread in touched-list
// order, truncate below eps·deg, swap into R, sort the list ascending.
func walkStepCSR[P ix, A ix, W ~float32 | ~float64](ws *Workspace, eps float64, rowPtr []P, adj []A, wts []W, deg []float64) {
	ws.s.reset()
	unit := len(wts) == 0
	for _, u := range ws.r.list {
		mass := ws.r.val[u]
		du := deg[u]
		if du == 0 {
			ws.s.add(u, mass)
			continue
		}
		ws.s.add(u, mass/2)
		lo, hi := int(rowPtr[u]), int(rowPtr[u+1])
		if unit {
			share := mass / 2 / du
			for _, a := range adj[lo:hi] {
				ws.s.add(int(a), share)
			}
		} else {
			row, wrow := adj[lo:hi], wts[lo:hi]
			for k, a := range row {
				ws.s.add(int(a), mass/2*float64(wrow[k])/du)
			}
		}
	}
	// Truncate: the regularization step. Compact the touched list in
	// place, killing dropped entries so a later touch re-adds them.
	live := ws.s.list[:0]
	for _, u := range ws.s.list {
		if ws.s.val[u] < eps*deg[u] {
			ws.s.kill(u)
			continue
		}
		live = append(live, u)
	}
	ws.s.list = live
	ws.r, ws.s = ws.s, ws.r
	ws.r.sortList()
}

// walkStepIter is the iterator fallback walk step.
func walkStepIter(g gstore.Graph, ws *Workspace, eps float64) {
	ws.s.reset()
	for _, u := range ws.r.list {
		mass := ws.r.val[u]
		du := g.Degree(u)
		if du == 0 {
			ws.s.add(u, mass)
			continue
		}
		ws.s.add(u, mass/2)
		it := g.Neighbors(u)
		for v, w, ok := it.Next(); ok; v, w, ok = it.Next() {
			ws.s.add(v, mass/2*w/du)
		}
	}
	live := ws.s.list[:0]
	for _, u := range ws.s.list {
		if ws.s.val[u] < eps*g.Degree(u) {
			ws.s.kill(u)
			continue
		}
		live = append(live, u)
	}
	ws.s.list = live
	ws.r, ws.s = ws.s, ws.r
	ws.r.sortList()
}
