package kernel

import (
	"context"
	"fmt"
	"math"

	"repro/internal/gstore"
	"repro/internal/par"
)

// This file is the diffusion engine: the run methods of the three
// strategies and the loops they drive. The unit of work is one seed on
// one workspace — a strongly-local diffusion's working set is sized by
// its output support, so one seed's planes stay cache-resident from its
// first push to its emit. A single-seed-set Diffuse calls its run
// method directly; BatchDiffuser.Run is a parallel loop of the same call
// over K seeds.
//
// The determinism contract is load-bearing for the whole serving
// stack: a diffusion performs *exactly* the same float operations in
// the same order alone, batched at any K and worker count, and on
// every backend, so its output planes are byte-identical (Float64bits,
// not tolerances). Seeds are independent by construction — each owns
// its workspace and its Stats slot — so the schedule never reaches the
// floats:
//
//   - Push: the FIFO queue order is sacred; pushQueue drains it front
//     to back.
//   - Nibble / heat: a walk step processes the frontier in ascending
//     node order (walkStep), truncates, and sorts the new frontier.

// BatchEmit receives one seed's finished result: the seed's index into
// the batch, the workspace holding its output planes, and its Stats.
// The workspace is only valid during the call — it returns to the pool
// when the callback does. Seeds run concurrently, so emit may be
// called concurrently for *distinct* indices (never twice for one);
// confine writes to per-index slots or synchronize.
type BatchEmit func(i int, ws *Workspace, st Stats) error

// BatchDiffuser runs one diffusion per seed, each on its own pooled
// workspace.
type BatchDiffuser struct {
	// Method is the diffusion to run for every seed. A NibbleWalk with
	// an OnStep is refused: the hook has no seed index, and seeds walk
	// concurrently.
	Method Diffuser
	// Workers bounds the number of seeds diffusing concurrently, and so
	// the workspaces live at once (<= 0 → runtime.NumCPU()).
	Workers int
}

// Run diffuses every seed and returns per-seed Stats, calling emit (if
// non-nil) with each seed's workspace as soon as that seed finishes,
// before the workspace is pooled again. Cancellation is checked between
// seeds, between walk steps and every 4096 pushes; a cancelled run
// returns ctx.Err() and emits no further seeds.
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
		return nil, fmt.Errorf("kernel: batch nibble: NibbleWalk.OnStep has no seed index; walk each seed with DiffuseContext")
	}
	if err := b.Method.validate(); err != nil {
		return nil, err
	}
	stats := make([]Stats, len(seeds))
	err := par.ForEachCtx(ctx, b.Workers, len(seeds), func(i int) error {
		ws := pool.Get()
		defer pool.Put(ws)
		if err := seedR(g, ws, seeds[i:i+1]); err != nil {
			return err
		}
		if err := b.Method.run(ctx, g, ws, &stats[i]); err != nil {
			return err
		}
		if emit == nil {
			return nil
		}
		return emit(i, ws, stats[i])
	})
	if err != nil {
		return nil, err
	}
	return stats, nil
}

func (d PushACL) run(ctx context.Context, g gstore.Graph, ws *Workspace, st *Stats) error {
	// Work queue of nodes that may violate r(u) < ε·deg(u), seeded in
	// ascending node order so runs are deterministic.
	for _, u := range ws.r.list {
		ws.q.push(u)
	}
	// The loop pauses every pushesPerCheck pushes, so a deadline can
	// stop a run whose length only 1/(ε·α) bounds; resuming continues
	// the same queue, so pausing changes no result bit.
	o := op{kind: opPush, push: d, ws: ws, st: st}
	for {
		dispatch(g, &o)
		if !o.paused {
			break
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	// The push never shrinks p's support, so the final support is the
	// peak. Reading it after the loop keeps the accounting out of the
	// float path entirely.
	st.MaxSupport = ws.PSupport()
	return nil
}

// pushesPerCheck is how many pushes run between two looks at the run's
// context.
const pushesPerCheck = 1 << 12

// pushQueue is the ACL push loop: drain the FIFO queue front to back,
// queueing every node whose residual reaches ε·deg. One push of node u
// takes the lazy step — bank α·r into p, keep (1−α)·r/2 at u, spread
// the other (1−α)·r/2 along u's row — unless the kept half would still
// reach ε·deg(u) and re-queue u. Then it settles u instead: it sums the
// geometric series of u's own lazy steps in closed form, banking
// 2α/(1+α)·r, leaving 0 at u and spreading (1−α)/(1+α)·r. Both are
// exact operations on the same lazy-PPR system. It pauses — returns
// true with the queue not yet drained — after every pushesPerCheck
// pushes.
func (r *rows[W]) pushQueue(d PushACL, ws *Workspace, st *Stats) (paused bool) {
	deg, bank, pass := r.deg, 2*d.Alpha/(1+d.Alpha), (1-d.Alpha)/(1+d.Alpha)
	for u, ok := ws.q.pop(); ok; u, ok = ws.q.pop() {
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
		spread := (1 - d.Alpha) * ru / 2
		if spread < d.Eps*du {
			ws.p.add(u, d.Alpha*ru)
			ws.r.set(u, spread) // the kept half, below threshold
		} else {
			ws.p.add(u, bank*ru)
			ws.r.set(u, 0)
			spread = pass * ru
		}
		// Ranging over row subslices (not indexing adj[lo:hi] in place)
		// lets the compiler drop the per-edge bounds checks. A queued
		// neighbour is skipped before its degree is loaded: the push
		// would be a no-op, so only the cache miss is saved.
		lo, hi := int(r.rowPtr[u]), int(r.rowPtr[u+1])
		if len(r.wts) == 0 {
			share := spread / du
			for _, a := range r.adj[lo:hi] {
				v := int(a)
				c := ws.r.touch(v)
				c.val += share
				if c.inQ != ws.r.epoch && c.val >= d.Eps*deg[v] {
					ws.q.push(v)
				}
			}
		} else {
			row, wrow := r.adj[lo:hi], r.wts[lo:hi]
			for k, a := range row {
				v := int(a)
				c := ws.r.touch(v)
				c.val += spread * float64(wrow[k]) / du
				if c.inQ != ws.r.epoch && c.val >= d.Eps*deg[v] {
					ws.q.push(v)
				}
			}
		}
		st.Pushes++
		st.WorkVolume += du
		if st.Pushes%pushesPerCheck == 0 {
			return true
		}
	}
	return false
}

func (d NibbleWalk) run(ctx context.Context, g gstore.Graph, ws *Workspace, st *Stats) error {
	for step := 1; step <= d.Steps; step++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		dispatch(g, &op{kind: opWalkStep, ws: ws, eps: d.Eps})
		if len(ws.r.list) == 0 {
			break // the walk died out: no stats, no hook
		}
		st.MaxSupport = max(st.MaxSupport, len(ws.r.list))
		st.Steps = step
		if d.OnStep != nil {
			if err := d.OnStep(step, ws); err != nil {
				return err
			}
		}
	}
	// Mirror the final distribution into the output plane.
	for _, u := range ws.r.list {
		ws.p.add(u, ws.r.c[u].val)
	}
	return nil
}

func (d HeatKernel) run(ctx context.Context, g gstore.Graph, ws *Workspace, st *Stats) error {
	terms := d.terms()
	weight := math.Exp(-d.T)
	for _, u := range ws.r.list {
		ws.p.add(u, weight*ws.r.c[u].val)
	}
	for kk := 1; kk <= terms && len(ws.r.list) > 0; kk++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		dispatch(g, &op{kind: opWalkStep, ws: ws, eps: d.Eps})
		weight *= d.T / float64(kk)
		for _, u := range ws.r.list {
			ws.p.add(u, weight*ws.r.c[u].val)
		}
		st.MaxSupport = max(st.MaxSupport, len(ws.r.list))
		st.Terms = kk
	}
	return nil
}

// walkStep advances ws one truncated lazy-walk step: visit the R-plane
// frontier in ascending node order, spreading each node's row into the
// scratch plane, then truncate below eps·deg — the regularization step
// — swap the result into R and sort its touched list.
func (r *rows[W]) walkStep(ws *Workspace, eps float64) {
	if ws.s.c == nil {
		ws.s.init(ws.capacity()) // the first walk step this workspace takes
	}
	ws.s.reset()
	rowPtr, adj, wts, deg := r.rowPtr, r.adj, r.wts, r.deg
	unit := len(wts) == 0
	for _, u := range ws.r.list {
		du := deg[u]
		mass := ws.r.c[u].val
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
	// Truncate, compacting the touched list in place and killing
	// dropped entries so a later touch re-adds them.
	live := ws.s.list[:0]
	for _, u := range ws.s.list {
		if ws.s.c[u].val < eps*deg[u] {
			ws.s.kill(u)
			continue
		}
		live = append(live, u)
	}
	ws.s.list = live
	ws.r, ws.s = ws.s, ws.r
	ws.r.sortList()
}
