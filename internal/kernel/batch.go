package kernel

import (
	"context"
	"fmt"
	"math"

	"repro/internal/gstore"
	"repro/internal/par"
)

// This file is the diffusion engine: the block runners of the three
// strategies and the loops they drive. A block is up to batchBlock
// independent diffusions — one seeded workspace each — advanced
// together so each CSR row window is streamed through cache once per
// block instead of once per seed. BatchDiffuser.Run cuts K seeds into
// blocks; a single-seed-set Diffuse is a block of one.
//
// The determinism contract is load-bearing for the whole serving
// stack: whatever block a diffusion runs in, it performs *exactly* the
// same float operations in the same order, so its output planes are
// byte-identical (Float64bits, not tolerances) alone, batched, and on
// every backend. Blocking never reorders work within one seed; it only
// interleaves work *across* seeds, which are independent by
// construction:
//
//   - Push: each seed's FIFO queue order is sacred. While at least two
//     seeds are live, a round pops the front node of every live queue,
//     sorts the ≤B (node, seed) pairs by node id, and performs one push
//     per live seed — per seed still strict FIFO, one pop per round,
//     processed before the next pop — while overlapping frontiers hit
//     the same CSR rows back to back. The last live seed has nobody to
//     share rows with, so its queue is drained directly.
//   - Nibble / heat: a walk step processes the frontier in ascending
//     node order, so a block step walks the ascending merge of the
//     block's frontiers and applies each node's row to every seed whose
//     frontier contains it. Per seed the visit order is unchanged; the
//     row is fetched once per block.

// batchBlock is the number of seeds a block processes against the same
// CSR row windows. Eight workspaces keep the combined frontier state
// small enough to stay cache-resident next to the graph; the bound also
// lets every per-block scratch array live on the stack.
const batchBlock = 8

// blockRunner is what the engine needs of a strategy: its parameter
// check, and the loop that advances one block of already-seeded
// workspaces (R plane loaded by seedR) to completion, filling sts.
// onStep, when non-nil, is the walk methods' per-step hook; it
// receives base plus the workspace's index in the block.
type blockRunner interface {
	validate() error
	runBlock(ctx context.Context, g gstore.Graph, wss []*Workspace, sts []Stats, base int, onStep func(i, step int, ws *Workspace) error) error
}

// BatchEmit receives one seed's finished result: the seed's index into
// the batch, the workspace holding its output planes, and its Stats.
// The workspace is only valid during the call — it returns to the pool
// when the callback does. Blocks run concurrently, so emit may be
// called concurrently for *distinct* indices (never twice for one);
// confine writes to per-index slots or synchronize.
type BatchEmit func(i int, ws *Workspace, st Stats) error

// BatchDiffuser runs one diffusion per seed with cache-blocked frontier
// processing. Method must be one of the kernel diffusions (PushACL,
// NibbleWalk, HeatKernel); anything else is an error.
type BatchDiffuser struct {
	// Method is the diffusion to run for every seed. A NibbleWalk with
	// its own OnStep is rejected — the per-seed hook below replaces it.
	Method Diffuser
	// Workers bounds the number of blocks diffusing concurrently
	// (<= 0 → runtime.NumCPU()).
	Workers int
	// OnStep, when non-nil, is called for walk methods after each
	// step's truncation for every seed still live at that step, with
	// the seed's batch index. Same contract as NibbleWalk.OnStep, plus
	// the index; like BatchEmit it may run concurrently for seeds in
	// different blocks.
	OnStep func(i, step int, ws *Workspace) error
}

// Run diffuses every seed and returns per-seed Stats, calling emit (if
// non-nil) with each seed's workspace before it is pooled again.
// Cancellation is checked between blocks and between walk steps; a
// cancelled run returns ctx.Err() and emits no further seeds.
func (b BatchDiffuser) Run(ctx context.Context, g gstore.Graph, pool *Pool, seeds []int, emit BatchEmit) ([]Stats, error) {
	if b.Method == nil {
		return nil, fmt.Errorf("kernel: batch diffuser needs a Method")
	}
	if len(seeds) == 0 {
		return nil, fmt.Errorf("kernel: batch diffusion needs a nonempty seed list")
	}
	if pool == nil {
		return nil, fmt.Errorf("kernel: batch diffusion needs a workspace pool")
	}
	if pool.N() != g.N() {
		return nil, fmt.Errorf("kernel: pool sized for %d nodes used on a %d-node graph", pool.N(), g.N())
	}
	if nw, ok := b.Method.(NibbleWalk); ok && nw.OnStep != nil {
		return nil, fmt.Errorf("kernel: batch nibble: set BatchDiffuser.OnStep, not NibbleWalk.OnStep")
	}
	m, ok := b.Method.(blockRunner)
	if !ok {
		return nil, fmt.Errorf("kernel: batch diffuser: unsupported method %T", b.Method)
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	stats := make([]Stats, len(seeds))
	blocks := (len(seeds) + batchBlock - 1) / batchBlock
	err := par.ForEachCtx(ctx, b.Workers, blocks, func(bi int) error {
		lo := bi * batchBlock
		hi := min(lo+batchBlock, len(seeds))
		wss := pool.GetBlock(hi - lo)
		defer pool.PutBlock(wss)
		for j, ws := range wss {
			if err := seedR(g, ws, seeds[lo+j:lo+j+1]); err != nil {
				return err
			}
		}
		if err := m.runBlock(ctx, g, wss, stats[lo:hi], lo, b.OnStep); err != nil {
			return err
		}
		if emit == nil {
			return nil
		}
		for j, ws := range wss {
			if err := emit(lo+j, ws, stats[lo+j]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return stats, nil
}

func (d PushACL) runBlock(_ context.Context, g gstore.Graph, wss []*Workspace, sts []Stats, _ int, _ func(int, int, *Workspace) error) error {
	// Work queue of nodes that may violate r(u) < ε·deg(u), seeded in
	// ascending node order so runs are deterministic.
	for _, ws := range wss {
		for _, u := range ws.r.list {
			ws.q.push(u)
		}
	}
	if err := dispatch(g, &op{kind: opPush, push: d, wss: wss, sts: sts}); err != nil {
		return err
	}
	// The push never shrinks p's support, so the final support is the
	// peak. Reading it after the loop keeps the accounting out of the
	// float path entirely.
	for j, ws := range wss {
		sts[j].MaxSupport = ws.PSupport()
	}
	return nil
}

// pushPair schedules one push operation: seed s pushes node u.
type pushPair struct{ u, s int }

// pushBlock is the ACL push loop over one block: gather-sort-push
// rounds while at least two seeds are live, then a straight drain of
// the last one's queue. Per seed both are the same FIFO sequence of
// pushNode calls.
func (r *rows[P, A, W]) pushBlock(d PushACL, wss []*Workspace, sts []Stats) {
	var done [batchBlock]bool
	var pairs [batchBlock]pushPair
	for live := len(wss); live > 1; {
		order := pairs[:0]
		for s, ws := range wss {
			if done[s] {
				continue
			}
			u, ok := ws.q.pop()
			if !ok {
				done[s] = true
				live--
				continue
			}
			order = append(order, pushPair{u: u, s: s})
		}
		// Insertion sort by node id: blocks are small (≤ batchBlock
		// pairs) and rounds are hot, so avoid sort.Slice's indirection.
		for i := 1; i < len(order); i++ {
			for j := i; j > 0 && order[j].u < order[j-1].u; j-- {
				order[j], order[j-1] = order[j-1], order[j]
			}
		}
		for _, pr := range order {
			r.pushNode(d, wss[pr.s], &sts[pr.s], pr.u)
		}
	}
	for s, ws := range wss {
		if done[s] {
			continue
		}
		for u, ok := ws.q.pop(); ok; u, ok = ws.q.pop() {
			r.pushNode(d, ws, &sts[s], u)
		}
	}
}

// pushNode is one ACL push of node u in ws: bank an α fraction of the
// residual into p, keep half the rest, spread the other half along u's
// row, queueing every node whose residual reaches ε·deg. It stays out
// of line so that pushBlock's two loops share one copy of the body and
// its row loops do not compete with the round bookkeeping for
// registers; a block of one then pays one call per push.
//
//go:noinline
func (r *rows[P, A, W]) pushNode(d PushACL, ws *Workspace, st *Stats, u int) {
	deg := r.deg
	du := deg[u]
	if du == 0 {
		// Isolated node: its residual can only go to p.
		ws.p.add(u, ws.r.get(u))
		ws.r.set(u, 0)
		return
	}
	ru := ws.r.get(u)
	if ru < d.Eps*du {
		return
	}
	ws.p.add(u, d.Alpha*ru)
	keep := (1 - d.Alpha) * ru / 2
	ws.r.set(u, keep)
	if keep >= d.Eps*du {
		ws.q.push(u)
	}
	spread := (1 - d.Alpha) * ru / 2
	// Ranging over row subslices (not indexing adj[lo:hi] in place)
	// lets the compiler drop the per-edge bounds checks.
	lo, hi := int(r.rowPtr[u]), int(r.rowPtr[u+1])
	if len(r.wts) == 0 {
		share := spread / du
		for _, a := range r.adj[lo:hi] {
			v := int(a)
			rv := ws.r.get(v) + share
			ws.r.set(v, rv)
			if rv >= d.Eps*deg[v] {
				ws.q.push(v)
			}
		}
	} else {
		row, wrow := r.adj[lo:hi], r.wts[lo:hi]
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

// stepLive advances the block's still-walking workspaces wss[j],
// j ∈ alive, one truncated lazy-walk step.
func stepLive(g gstore.Graph, wss []*Workspace, alive []int, eps float64) error {
	var liveArr [batchBlock]*Workspace
	live := liveArr[:0]
	for _, j := range alive {
		live = append(live, wss[j])
	}
	return dispatch(g, &op{kind: opWalkStep, wss: live, eps: eps})
}

func (d NibbleWalk) runBlock(ctx context.Context, g gstore.Graph, wss []*Workspace, sts []Stats, base int, onStep func(i, step int, ws *Workspace) error) error {
	var aliveArr [batchBlock]int
	alive := aliveArr[:len(wss)]
	for j := range alive {
		alive[j] = j
	}
	for step := 1; step <= d.Steps && len(alive) > 0; step++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := stepLive(g, wss, alive, d.Eps); err != nil {
			return err
		}
		next := alive[:0]
		for _, j := range alive {
			ws := wss[j]
			if len(ws.r.list) == 0 {
				continue // the walk died out: no stats, no hook
			}
			sts[j].MaxSupport = max(sts[j].MaxSupport, len(ws.r.list))
			sts[j].Steps = step
			if onStep != nil {
				if err := onStep(base+j, step, ws); err != nil {
					return err
				}
			}
			next = append(next, j)
		}
		alive = next
	}
	// Mirror the final distribution into the output plane.
	for _, ws := range wss {
		for _, u := range ws.r.list {
			ws.p.add(u, ws.r.val[u])
		}
	}
	return nil
}

func (d HeatKernel) runBlock(ctx context.Context, g gstore.Graph, wss []*Workspace, sts []Stats, _ int, _ func(int, int, *Workspace) error) error {
	// The term count and the Taylor weights depend only on (T, Eps), so
	// the whole block shares them.
	terms := d.terms()
	weight := math.Exp(-d.T)
	for _, ws := range wss {
		for _, u := range ws.r.list {
			ws.p.add(u, weight*ws.r.val[u])
		}
	}
	var aliveArr [batchBlock]int
	alive := aliveArr[:len(wss)]
	for j := range alive {
		alive[j] = j
	}
	for kk := 1; kk <= terms && len(alive) > 0; kk++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := stepLive(g, wss, alive, d.Eps); err != nil {
			return err
		}
		weight *= d.T / float64(kk)
		next := alive[:0]
		for _, j := range alive {
			ws := wss[j]
			for _, u := range ws.r.list {
				ws.p.add(u, weight*ws.r.val[u])
			}
			sts[j].MaxSupport = max(sts[j].MaxSupport, len(ws.r.list))
			sts[j].Terms = kk
			if len(ws.r.list) > 0 {
				next = append(next, j)
			}
		}
		alive = next
	}
	return nil
}

// walkStep advances every workspace of a block one truncated lazy-walk
// step: iterate the ascending merge of the block's R-plane frontiers,
// fetch each node's CSR row once, and spread it into the scratch plane
// of every seed whose frontier contains the node. Each seed sees its
// own frontier in ascending order whatever the block holds, then
// truncates below eps·deg — the regularization step — swaps the result
// into R and sorts its touched list, so the step is bit-identical per
// seed.
func (r *rows[P, A, W]) walkStep(wss []*Workspace, eps float64) {
	for _, ws := range wss {
		ws.s.reset()
	}
	rowPtr, adj, wts, deg := r.rowPtr, r.adj, r.wts, r.deg
	unit := len(wts) == 0
	// Per-seed cursor into the sorted frontier list.
	var ptrsArr [batchBlock]int
	ptrs := ptrsArr[:len(wss)]
	for {
		// Next frontier node: the minimum unconsumed id across seeds.
		u := -1
		for s, ws := range wss {
			if p := ptrs[s]; p < len(ws.r.list) {
				if v := ws.r.list[p]; u < 0 || v < u {
					u = v
				}
			}
		}
		if u < 0 {
			break
		}
		du := deg[u]
		lo, hi := int(rowPtr[u]), int(rowPtr[u+1])
		for s, ws := range wss {
			p := ptrs[s]
			if p >= len(ws.r.list) || ws.r.list[p] != u {
				continue
			}
			ptrs[s] = p + 1
			mass := ws.r.val[u]
			if du == 0 {
				ws.s.add(u, mass)
				continue
			}
			ws.s.add(u, mass/2)
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
	}
	// Truncate, compacting each touched list in place and killing
	// dropped entries so a later touch re-adds them.
	for _, ws := range wss {
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
}
