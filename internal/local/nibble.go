package local

import (
	"context"
	"fmt"

	"repro/internal/gstore"
	"repro/internal/kernel"
	"repro/internal/partition"
)

// NibbleResult reports a truncated-random-walk computation.
type NibbleResult struct {
	// Dist is the truncated walk distribution after the final step.
	Dist SparseVec
	// Best is the best sweep cut seen over all steps (the Spielman–Teng
	// procedure sweeps at every step), nil if no valid cut appeared.
	Best *partition.SweepResult
	// Steps is the number of walk steps performed.
	Steps int
	// MaxSupport is the largest support size reached, the locality
	// measure: it is bounded by the truncation threshold, not by n.
	MaxSupport int
}

// Nibble runs the Spielman–Teng truncated lazy random walk [39] on a
// pooled kernel workspace: evolve the seed distribution with
// W = (I + AD^{-1})/2, and after every step zero out ("truncate") every
// entry with q(u) < eps·deg(u). The truncation keeps the support — and
// hence the work — small and independent of n; §3.3 identifies it as
// the implicit regularizer, "a bias analogous to early stopping".
func Nibble(g gstore.Graph, seeds []int, eps float64, steps int) (*NibbleResult, error) {
	ws := kernel.Acquire(g.N())
	defer kernel.Release(ws)
	st, best, err := NibbleWorkspace(context.Background(), g, ws, seeds, eps, steps)
	if err != nil {
		return nil, err
	}
	return &NibbleResult{
		Dist: FromWorkspaceP(ws), Best: best,
		Steps: st.Steps, MaxSupport: st.MaxSupport,
	}, nil
}

// NibbleWorkspace is Nibble on a caller-provided workspace: it runs the
// truncated walk, sweeping the distribution after every step and
// keeping the best cut. The final distribution is left in the
// workspace's P plane (snapshot with FromWorkspaceP if a map is
// needed). Layers that pool workspaces per graph call this directly;
// once ctx is done the walk stops between steps with ctx's error.
func NibbleWorkspace(ctx context.Context, g gstore.Graph, ws *kernel.Workspace, seeds []int, eps float64, steps int) (kernel.Stats, *partition.SweepResult, error) {
	var best *partition.SweepResult
	walk := kernel.NibbleWalk{
		Eps: eps, Steps: steps,
		OnStep: func(_ int, w *kernel.Workspace) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			best = betterStepCut(g, w, best)
			return nil
		},
	}
	st, err := walk.Diffuse(g, ws, seeds)
	if err != nil {
		return st, nil, fmt.Errorf("local: %w", err)
	}
	return st, best, nil
}

// betterStepCut sweeps the live walk distribution (the R plane) inside
// an OnStep hook and returns its cut if that strictly improves on best,
// else best. Only an improving step copies its set out of the
// workspace.
func betterStepCut(g gstore.Graph, ws *kernel.Workspace, best *partition.SweepResult) *partition.SweepResult {
	k := ws.SweepOrderR(g)
	if k == 0 {
		return best
	}
	prefix, phi := bestSweepPrefix(g, ws, k)
	if prefix == 0 || (best != nil && phi >= best.Conductance) {
		return best
	}
	return sweepResult(ws, prefix, phi)
}

// NibbleBatch runs one truncated walk per seed on the kernel batch
// engine (one diffusion per entry of seeds, unlike NibbleWorkspace's
// seed *set*), sweeping each seed's distribution after every step and
// keeping its best cut — the per-seed outputs are byte-identical to K
// separate NibbleWorkspace calls. Workspaces come from pool; stats and
// best cuts are returned in seed order (best[i] nil if no valid cut
// appeared for that seed).
func NibbleBatch(ctx context.Context, g gstore.Graph, pool *kernel.Pool, seeds []int, eps float64, steps int) ([]kernel.Stats, []*partition.SweepResult, error) {
	best := make([]*partition.SweepResult, len(seeds))
	bd := kernel.BatchDiffuser{
		Method: kernel.NibbleWalk{Eps: eps, Steps: steps},
		OnStep: func(i, _ int, w *kernel.Workspace) error {
			best[i] = betterStepCut(g, w, best[i])
			return nil
		},
	}
	sts, err := bd.Run(ctx, g, pool, seeds, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("local: %w", err)
	}
	return sts, best, nil
}
