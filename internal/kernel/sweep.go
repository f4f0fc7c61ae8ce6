package kernel

import (
	"math"

	"repro/internal/gstore"
)

// This file is the sweep half of result materialisation: ordering a
// plane's support by value per degree and walking the prefixes of that
// order with the cut maintained incrementally. Like the diffusion
// loops it runs on workspace-resident scratch and raw CSR rows, so one
// sweep costs O(support + vol(support)) time (the sort is a radix sort:
// one pass per byte of the key that varies) and no allocation — no
// step of it is sized by the graph.

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
		if x := pl.c[u].val; x != 0 {
			if d := g.Degree(u); d > 0 {
				pairs = append(pairs, sweepPair{val: x / d, node: u})
			}
		}
	}
	ws.sweep, ws.tmp = sortSweep(pairs, ws.tmp, ws.n)
	return len(pairs)
}

// sortSweep sorts pairs of distinct nodes below n into sweep order and
// returns it with the spare buffer (one of the two is pairs' array,
// the other tmp's, grown to pairs' capacity if short). It is an LSD
// radix sort of 8-bit digits, least significant key first: the node
// id's bytes below n, then the value's. Every pass is stable, so the
// result is ordered by value and, among equal values, by node — the
// one order, whatever algorithm produces it.
func sortSweep(pairs, tmp []sweepPair, n int) (sorted, spare []sweepPair) {
	if cap(tmp) < len(pairs) {
		tmp = make([]sweepPair, cap(pairs))
	}
	tmp = tmp[:len(pairs)]
	for shift := uint(0); shift < 64 && (n-1)>>shift != 0; shift += 8 {
		pairs, tmp = radixPass(pairs, tmp, shift, true)
	}
	for shift := uint(0); shift < 64; shift += 8 {
		pairs, tmp = radixPass(pairs, tmp, shift, false)
	}
	return pairs, tmp
}

// digit returns byte shift/8 of the pair's node id (byNode) or of its
// value key ^Float64bits(val). The key ascends as the value descends
// over the nonnegative values (+Inf first, then finite ones, then +0)
// — all a sweep sorts, since every plane is a mass vector.
func (p *sweepPair) digit(shift uint, byNode bool) uint8 {
	if byNode {
		return uint8(p.node >> shift)
	}
	return uint8(^math.Float64bits(p.val) >> shift)
}

// radixPass is one stable counting-sort pass of src into dst by one
// digit, returning the sorted slice and the spare one. A digit that is
// the same for every pair leaves src as it is.
func radixPass(src, dst []sweepPair, shift uint, byNode bool) (sorted, spare []sweepPair) {
	var count [256]int
	for i := range src {
		count[src[i].digit(shift, byNode)]++
	}
	if len(src) == 0 || count[src[0].digit(shift, byNode)] == len(src) {
		return src, dst
	}
	sum := 0
	for d, c := range count {
		count[d] = sum
		sum += c
	}
	for i := range src {
		d := src[i].digit(shift, byNode)
		dst[count[d]] = src[i]
		count[d]++
	}
	return dst, src
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
// Membership in S is the workspace's n-bit set inS: 8 kB at n = 2^16,
// small enough that the membership test of every edge stays in L1. The scan empties it on the way out by zeroing the
// words of the nodes it added — O(|S|), whether it ran to the end or
// the visitor stopped it.
//
// Like every Diffuse, the scan reaches the rows through the kernel's one
// backend dispatch; it panics on a backend that dispatch does not know
// (a diffusion on such a graph has already failed with that error).
func (ws *Workspace) SweepScan(g gstore.Graph, maxPrefix int, visit SweepVisit) {
	order := ws.sweep[:min(maxPrefix, len(ws.sweep))]
	if err := dispatch(g, &op{kind: opSweepScan, inS: ws.inS, order: order, visit: visit}); err != nil {
		panic(err)
	}
}

// sweepScan is the monomorphized prefix scan.
func (r *rows[P, A, W]) sweepScan(inS []uint64, order []sweepPair, visit SweepVisit) {
	rowPtr, adj, wts, deg := r.rowPtr, r.adj, r.wts, r.deg
	unit := len(wts) == 0
	var cut, vol float64
	k := 0
	for k < len(order) {
		u := order[k].node
		lo, hi := int(rowPtr[u]), int(rowPtr[u+1])
		if unit {
			cut += float64(hi - lo - 2*countIn(adj[lo:hi], inS))
		} else {
			row, wrow := adj[lo:hi], wts[lo:hi]
			for i, a := range row {
				if w := float64(wrow[i]); inS[uint64(a)>>6]>>(uint64(a)&63)&1 != 0 {
					cut -= w
				} else {
					cut += w
				}
			}
		}
		inS[u>>6] |= 1 << (u & 63)
		vol += deg[u]
		k++
		if !visit(k, cut, vol) {
			break
		}
	}
	for _, pr := range order[:k] {
		inS[pr.node>>6] = 0
	}
}

// countIn returns how many nodes of row are in the set. It is kept out
// of line on purpose: inlined into sweepScan, which holds too many
// live slices, the counter spills to the stack on every edge (measured
// at 6–15 % of the whole sweep on the G16 benchmark).
//
//go:noinline
func countIn[A ix](row []A, inS []uint64) int {
	in := 0
	for _, a := range row {
		in += int(inS[uint64(a)>>6] >> (uint64(a) & 63) & 1)
	}
	return in
}
