package kernel

import (
	"slices"

	"repro/internal/gstore"
)

// This file is the sweep half of result materialisation: ordering a
// plane's support by value per degree and walking the prefixes of that
// order with the cut maintained incrementally. Like the diffusion
// loops it runs on workspace-resident scratch and raw CSR rows, so one
// sweep costs O(support·log support + vol(support)) time and no
// allocation — nothing in it is sized by the graph.

// sweepPair is one entry of a sweep order: a node and its sort key.
type sweepPair struct {
	val  float64
	node int
}

// SweepOrderP loads the workspace's sweep order from the output plane:
// every node with a nonzero value and a positive degree, by
// p(u)/deg(u) descending with node id ascending as the tiebreak, and
// returns how many nodes that is. The order lives in workspace scratch
// (read it with SweepNodes, walk it with SweepScan) and is valid until
// the next SweepOrder call on this workspace.
//
// The order is a strict total order over distinct nodes, so the
// permutation does not depend on the sorting algorithm; and because it
// is built from a plane's touched list it is duplicate-free and in
// range by construction — which is why the scan needs none of the
// validation partition.SweepCutOrdered applies to caller-supplied
// orders.
func (ws *Workspace) SweepOrderP(g gstore.Graph) int { return ws.sweepOrder(g, &ws.p) }

// SweepOrderR is SweepOrderP for the residual plane — the live walk
// distribution inside a NibbleWalk OnStep hook.
func (ws *Workspace) SweepOrderR(g gstore.Graph) int { return ws.sweepOrder(g, &ws.r) }

func (ws *Workspace) sweepOrder(g gstore.Graph, pl *plane) int {
	pairs := ws.sweep[:0]
	for _, u := range pl.list {
		if x := pl.val[u]; x != 0 {
			if d := g.Degree(u); d > 0 {
				pairs = append(pairs, sweepPair{val: x / d, node: u})
			}
		}
	}
	slices.SortFunc(pairs, func(a, b sweepPair) int {
		switch {
		case a.val > b.val:
			return -1
		case a.val < b.val:
			return 1
		}
		return a.node - b.node
	})
	ws.sweep = pairs
	return len(pairs)
}

// SweepNodes appends the first k nodes of the current sweep order to
// dst and returns the extended slice.
func (ws *Workspace) SweepNodes(dst []int, k int) []int {
	for _, pr := range ws.sweep[:k] {
		dst = append(dst, pr.node)
	}
	return dst
}

// SweepVisit is called by SweepScan after each node joins the prefix
// set S: size = |S|, cut = cut(S) and vol = vol(S). Returning false
// ends the scan.
type SweepVisit func(size int, cut, vol float64) bool

// SweepScan walks the prefixes of the current sweep order, at most
// maxPrefix of them, maintaining cut(S) and vol(S) incrementally:
// adding u turns its edges into S from cut edges into internal ones
// and its other edges into cut edges. Rows are read in CSR order and
// the sums accumulate in sweep order, so cut and vol are bit-identical
// to partition.SweepCutOrdered over the same order on every backend.
//
// Membership in S is kept in the step plane's epoch stamps: a plane is
// only ever swept between walk steps, when s is idle (every step resets
// it on entry), so the set costs no memory of its own and empties in
// O(1).
//
// Like every Diffuse, the scan reaches the rows through the kernel's one
// backend dispatch; it panics on a backend that dispatch does not know
// (a diffusion on such a graph has already failed with that error).
func (ws *Workspace) SweepScan(g gstore.Graph, maxPrefix int, visit SweepVisit) {
	order := ws.sweep[:min(maxPrefix, len(ws.sweep))]
	ws.s.reset()
	if err := dispatch(g, &op{kind: opSweepScan, inS: &ws.s, order: order, visit: visit}); err != nil {
		panic(err)
	}
}

// sweepScan is the monomorphized prefix scan.
func (r *rows[P, A, W]) sweepScan(inS *plane, order []sweepPair, visit SweepVisit) {
	rowPtr, adj, wts, deg := r.rowPtr, r.adj, r.wts, r.deg
	stamp, epoch := inS.stamp, inS.epoch
	unit := len(wts) == 0
	var cut, vol float64
	for k, pr := range order {
		u := pr.node
		lo, hi := int(rowPtr[u]), int(rowPtr[u+1])
		if unit {
			cut += float64(hi - lo - 2*countIn(adj[lo:hi], stamp, epoch))
		} else {
			row, wrow := adj[lo:hi], wts[lo:hi]
			for i, a := range row {
				if w := float64(wrow[i]); stamp[a] == epoch {
					cut -= w
				} else {
					cut += w
				}
			}
		}
		stamp[u] = epoch
		vol += deg[u]
		if !visit(k+1, cut, vol) {
			return
		}
	}
}

// countIn returns how many nodes of row carry the stamp. It is kept out
// of line on purpose: inlined into sweepScan, which holds too many
// live slices, the counter spills to the stack on every edge (measured
// at 6–15 % of the whole sweep on the G16 benchmark).
//
//go:noinline
func countIn[A ix](row []A, stamp []uint32, epoch uint32) int {
	in := 0
	for _, a := range row {
		if stamp[a] == epoch {
			in++
		}
	}
	return in
}
