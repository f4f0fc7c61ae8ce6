package kernel

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"repro/internal/gstore"
	"repro/internal/par"
)

// This file is the multi-seed batch engine (ROADMAP item 3): run K
// independent diffusions — one per seed — over shared pooled
// workspaces, processing seeds in cache blocks so each CSR row window
// is streamed through cache once per block instead of once per seed.
//
// The determinism contract is the same as the single-seed kernels and
// is load-bearing for the whole serving stack: for every seed the
// batch engine performs *exactly* the float operations of the
// sequential single-seed path, in the same order, so the output planes
// are byte-identical (Float64bits, not tolerances) to K separate
// Diffuse calls on every backend. The blocking below never reorders
// work within one seed; it only interleaves work *across* seeds, which
// are independent by construction:
//
//   - Push: each seed's FIFO queue order is sacred. A block round pops
//     the front node of every live queue, sorts the ≤B (node, seed)
//     pairs by node id, and performs one push per live seed. Per seed
//     that is still strict FIFO — one pop per round, processed before
//     the next pop — while overlapping frontiers hit the same CSR rows
//     back to back.
//   - Nibble / heat: a sequential walk step processes the frontier in
//     ascending node order, so a block step walks the ascending merge
//     of the block's frontiers and applies each node's row to every
//     seed whose frontier contains it. Per seed the visit order is
//     unchanged; the row is fetched once per block.

// DefaultBatchBlock is the number of seeds a block processes against
// the same CSR row windows. Eight workspaces keep the combined frontier
// state small enough to stay cache-resident next to the graph.
const DefaultBatchBlock = 8

// BatchEmit receives one seed's finished result: the seed's index into
// the batch, the workspace holding its output planes, and its Stats.
// The workspace is only valid during the call — it returns to the pool
// when the callback does. Blocks run concurrently, so emit may be
// called concurrently for *distinct* indices (never twice for one);
// confine writes to per-index slots or synchronize.
type BatchEmit func(i int, ws *Workspace, st Stats) error

// BatchDiffuser runs one diffusion per seed with cache-blocked frontier
// processing. Method must be one of the kernel diffusions (PushACL,
// NibbleWalk, HeatKernel); any other Diffuser falls back to sequential
// per-seed execution inside each block, which is still correct and
// pooled, just not row-shared.
type BatchDiffuser struct {
	// Method is the diffusion to run for every seed. A NibbleWalk with
	// its own OnStep is rejected — the per-seed hook below replaces it.
	Method Diffuser
	// Block is the number of seeds per cache block (default
	// DefaultBatchBlock). Larger blocks share rows more aggressively but
	// grow the resident workspace set.
	Block int
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
	block := b.Block
	if block <= 0 {
		block = DefaultBatchBlock
	}
	stats := make([]Stats, len(seeds))
	blocks := (len(seeds) + block - 1) / block
	err := par.ForEachCtx(ctx, b.Workers, blocks, func(bi int) error {
		lo := bi * block
		hi := lo + block
		if hi > len(seeds) {
			hi = len(seeds)
		}
		wss := pool.GetBlock(hi - lo)
		defer pool.PutBlock(wss)
		var err error
		switch m := b.Method.(type) {
		case PushACL:
			err = runPushBlock(m, g, wss, seeds[lo:hi], stats[lo:hi])
		case NibbleWalk:
			err = b.runNibbleBlock(ctx, m, g, wss, seeds[lo:hi], lo, stats[lo:hi])
		case HeatKernel:
			err = b.runHeatBlock(ctx, m, g, wss, seeds[lo:hi], stats[lo:hi])
		default:
			err = runGenericBlock(ctx, m, g, wss, seeds[lo:hi], stats[lo:hi])
		}
		if err != nil {
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

// seedBlock resets every workspace and seeds it with its single seed,
// reproducing the sequential Diffuse preamble per seed.
func seedBlock(g gstore.Graph, wss []*Workspace, seeds []int) error {
	for j, ws := range wss {
		ws.Reset()
		if err := seedR(g, ws, seeds[j:j+1]); err != nil {
			return err
		}
	}
	return nil
}

// runPushBlock runs the blocked ACL push over one block of seeds.
func runPushBlock(d PushACL, g gstore.Graph, wss []*Workspace, seeds []int, sts []Stats) error {
	if d.Alpha <= 0 || d.Alpha >= 1 {
		return fmt.Errorf("kernel: push alpha=%v outside (0,1)", d.Alpha)
	}
	if d.Eps <= 0 {
		return fmt.Errorf("kernel: push eps=%v must be positive", d.Eps)
	}
	if err := seedBlock(g, wss, seeds); err != nil {
		return err
	}
	for _, ws := range wss {
		for _, u := range ws.r.list {
			ws.q.push(u)
		}
	}
	pushBatchOn(d, g, wss, sts)
	for j, ws := range wss {
		sts[j].MaxSupport = ws.PSupport()
	}
	return nil
}

// pushBatchOn dispatches the blocked push on g's concrete
// representation, mirroring pushOn.
func pushBatchOn(d PushACL, g gstore.Graph, wss []*Workspace, sts []Stats) {
	switch t := g.(type) {
	case gstore.Heap:
		rowPtr, adj, wts, deg := t.RawCSR()
		pushBatchCSR(d, wss, sts, rowPtr, adj, wts, deg)
	case *gstore.Compact:
		rowPtr, adj, deg := t.RawRowPtr(), t.RawAdj(), t.RawDegrees()
		if w64 := t.RawWeights64(); w64 != nil {
			pushBatchCSR(d, wss, sts, rowPtr, adj, w64, deg)
		} else if w32 := t.RawWeights32(); w32 != nil {
			pushBatchCSR(d, wss, sts, rowPtr, adj, w32, deg)
		} else {
			pushBatchCSR(d, wss, sts, rowPtr, adj, []float64(nil), deg)
		}
		runtime.KeepAlive(t) // see pushOn: the raw slices alone don't pin t
	default:
		for j := range wss {
			sts[j] = pushIter(d, g, wss[j])
		}
	}
}

// pushPair schedules one push operation: seed s pushes node u.
type pushPair struct{ u, s int }

// pushBatchCSR is the blocked monomorphized push loop. Each round pops
// the FIFO front of every live seed, orders the pairs by node id, and
// performs one push per seed with the exact arithmetic of pushCSR —
// per seed this is the sequential operation sequence, bit for bit.
func pushBatchCSR[P ix, A ix, W ~float32 | ~float64](d PushACL, wss []*Workspace, sts []Stats, rowPtr []P, adj []A, wts []W, deg []float64) {
	unit := len(wts) == 0
	live := len(wss)
	done := make([]bool, len(wss))
	order := make([]pushPair, 0, len(wss))
	for live > 0 {
		order = order[:0]
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
		// Insertion sort by node id: blocks are small (≤ Block pairs)
		// and rounds are hot, so avoid sort.Slice's indirection.
		for i := 1; i < len(order); i++ {
			for j := i; j > 0 && order[j].u < order[j-1].u; j-- {
				order[j], order[j-1] = order[j-1], order[j]
			}
		}
		for _, pr := range order {
			ws := wss[pr.s]
			u := pr.u
			du := deg[u]
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
			sts[pr.s].Pushes++
			sts[pr.s].WorkVolume += du
		}
	}
}

// runNibbleBlock runs the blocked truncated walk over one block.
func (b BatchDiffuser) runNibbleBlock(ctx context.Context, d NibbleWalk, g gstore.Graph, wss []*Workspace, seeds []int, base int, sts []Stats) error {
	if d.Eps <= 0 {
		return fmt.Errorf("kernel: nibble eps=%v must be positive", d.Eps)
	}
	if d.Steps < 1 {
		return fmt.Errorf("kernel: nibble steps=%d must be >= 1", d.Steps)
	}
	if err := seedBlock(g, wss, seeds); err != nil {
		return err
	}
	alive := make([]int, len(wss))
	for j := range alive {
		alive[j] = j
	}
	liveWs := make([]*Workspace, 0, len(wss))
	for step := 1; step <= d.Steps && len(alive) > 0; step++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		liveWs = liveWs[:0]
		for _, j := range alive {
			liveWs = append(liveWs, wss[j])
		}
		walkStepBatchOn(g, liveWs, d.Eps)
		next := alive[:0]
		for _, j := range alive {
			ws := wss[j]
			if len(ws.r.list) == 0 {
				continue // the sequential walk breaks here: no stats, no hook
			}
			if len(ws.r.list) > sts[j].MaxSupport {
				sts[j].MaxSupport = len(ws.r.list)
			}
			sts[j].Steps = step
			if b.OnStep != nil {
				if err := b.OnStep(base+j, step, ws); err != nil {
					return err
				}
			}
			next = append(next, j)
		}
		alive = next
	}
	for _, ws := range wss {
		for _, u := range ws.r.list {
			ws.p.add(u, ws.r.val[u])
		}
	}
	return nil
}

// runHeatBlock runs the blocked heat-kernel expansion over one block.
func (b BatchDiffuser) runHeatBlock(ctx context.Context, d HeatKernel, g gstore.Graph, wss []*Workspace, seeds []int, sts []Stats) error {
	if d.T <= 0 || math.IsNaN(d.T) || math.IsInf(d.T, 0) {
		return fmt.Errorf("kernel: heat kernel t=%v must be positive and finite", d.T)
	}
	if d.Eps <= 0 {
		return fmt.Errorf("kernel: heat kernel eps=%v must be positive", d.Eps)
	}
	if err := seedBlock(g, wss, seeds); err != nil {
		return err
	}
	// K depends only on (T, Eps), so it is shared by the whole block.
	k := 1
	tail := 1 - math.Exp(-d.T)
	term := math.Exp(-d.T)
	for tail > d.Eps/2 && k < 10000 {
		term *= d.T / float64(k)
		tail -= term
		k++
	}
	for _, ws := range wss {
		for _, u := range ws.r.list {
			ws.p.add(u, math.Exp(-d.T)*ws.r.val[u])
		}
	}
	weight := math.Exp(-d.T)
	alive := make([]int, len(wss))
	for j := range alive {
		alive[j] = j
	}
	liveWs := make([]*Workspace, 0, len(wss))
	for kk := 1; kk <= k && len(alive) > 0; kk++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		liveWs = liveWs[:0]
		for _, j := range alive {
			liveWs = append(liveWs, wss[j])
		}
		walkStepBatchOn(g, liveWs, d.Eps)
		weight *= d.T / float64(kk)
		next := alive[:0]
		for _, j := range alive {
			ws := wss[j]
			for _, u := range ws.r.list {
				ws.p.add(u, weight*ws.r.val[u])
			}
			if len(ws.r.list) > sts[j].MaxSupport {
				sts[j].MaxSupport = len(ws.r.list)
			}
			sts[j].Terms = kk
			if len(ws.r.list) > 0 {
				next = append(next, j)
			}
		}
		alive = next
	}
	return nil
}

// runGenericBlock is the fallback for Diffuser implementations the
// engine does not know: sequential per-seed execution on the block's
// pooled workspaces. Correct and allocation-free, but no row sharing.
func runGenericBlock(ctx context.Context, m Diffuser, g gstore.Graph, wss []*Workspace, seeds []int, sts []Stats) error {
	for j, ws := range wss {
		if err := ctx.Err(); err != nil {
			return err
		}
		st, err := m.Diffuse(g, ws, seeds[j:j+1])
		if err != nil {
			return err
		}
		sts[j] = st
	}
	return nil
}

// walkStepBatchOn advances every workspace in the block one truncated
// lazy-walk step on g's concrete representation, mirroring walkStepOn.
func walkStepBatchOn(g gstore.Graph, wss []*Workspace, eps float64) {
	switch t := g.(type) {
	case gstore.Heap:
		rowPtr, adj, wts, deg := t.RawCSR()
		walkStepBatchCSR(wss, eps, rowPtr, adj, wts, deg)
	case *gstore.Compact:
		rowPtr, adj, deg := t.RawRowPtr(), t.RawAdj(), t.RawDegrees()
		if w64 := t.RawWeights64(); w64 != nil {
			walkStepBatchCSR(wss, eps, rowPtr, adj, w64, deg)
		} else if w32 := t.RawWeights32(); w32 != nil {
			walkStepBatchCSR(wss, eps, rowPtr, adj, w32, deg)
		} else {
			walkStepBatchCSR(wss, eps, rowPtr, adj, []float64(nil), deg)
		}
		runtime.KeepAlive(t) // see pushOn: the raw slices alone don't pin t
	default:
		for _, ws := range wss {
			walkStepIter(g, ws, eps)
		}
	}
}

// walkStepBatchCSR is the blocked monomorphized walk step: iterate the
// ascending merge of the block's frontiers, fetch each node's CSR row
// once, and apply it to every seed whose frontier contains the node.
// Each seed sees its frontier in ascending order — exactly the
// sequential walkStepCSR visit order — then truncates, swaps and sorts
// independently, so the step is bit-identical per seed.
func walkStepBatchCSR[P ix, A ix, W ~float32 | ~float64](wss []*Workspace, eps float64, rowPtr []P, adj []A, wts []W, deg []float64) {
	for _, ws := range wss {
		ws.s.reset()
	}
	unit := len(wts) == 0
	// Per-seed cursor into the sorted frontier list; stack-allocated
	// for the default block size so the step stays allocation-free.
	var ptrsArr [DefaultBatchBlock]int
	var ptrs []int
	if len(wss) <= DefaultBatchBlock {
		ptrs = ptrsArr[:len(wss)]
	} else {
		ptrs = make([]int, len(wss))
	}
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
