package stream

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/gstore"
	"repro/internal/kernel"
	"repro/internal/local"
	"repro/internal/par"
)

// BatchPPROptions configures BatchPersonalizedPageRank.
type BatchPPROptions struct {
	// Alpha is the push algorithm's teleportation parameter. Defaults to
	// 0.15.
	Alpha float64
	// Eps is the push tolerance; per-source work is O(1/(Eps·Alpha)).
	// Defaults to 1e-4.
	Eps float64
	// Workers is the number of concurrent workers. Defaults to
	// runtime.NumCPU().
	Workers int
}

func (o BatchPPROptions) withDefaults() BatchPPROptions {
	if o.Alpha == 0 {
		o.Alpha = 0.15
	}
	if o.Eps == 0 {
		o.Eps = 1e-4
	}
	o.Workers = par.Workers(o.Workers)
	return o
}

// BatchPPRResult holds per-source approximate PPR vectors.
type BatchPPRResult struct {
	// Vectors[i] is the sparse approximate PPR vector of Sources[i].
	Vectors []local.SparseVec
	// Sources echoes the requested sources, in order.
	Sources []int
	// TotalWork is Σ deg(u) over all push operations across all sources,
	// the aggregate cost measure.
	TotalWork float64
}

// BatchPersonalizedPageRank computes approximate Personalized PageRank
// vectors for many sources concurrently, the all-pairs primitive of
// reference [5] ("fast personalized PageRank on MapReduce"). It is a
// thin veneer over kernel.BatchDiffuser — the repo's single batch code
// path — which runs one source per pooled workspace across par
// workers; the per-source computation (one ACL push) touches only
// O(1/(ε·α)) volume, so the aggregate cost is linear in the number of
// sources, independent of n.
//
// The output is deterministic: identical to running the push sequentially
// per source, whatever the worker count or schedule.
func BatchPersonalizedPageRank(g *graph.Graph, sources []int, opt BatchPPROptions) (*BatchPPRResult, error) {
	return BatchPersonalizedPageRankCtx(context.Background(), g, sources, opt)
}

// BatchPersonalizedPageRankCtx is BatchPersonalizedPageRank with
// cooperative cancellation between sources.
func BatchPersonalizedPageRankCtx(ctx context.Context, g *graph.Graph, sources []int, opt BatchPPROptions) (*BatchPPRResult, error) {
	opt = opt.withDefaults()
	if len(sources) == 0 {
		return nil, fmt.Errorf("stream: no sources")
	}
	for _, s := range sources {
		if s < 0 || s >= g.N() {
			return nil, fmt.Errorf("stream: source %d out of range [0,%d)", s, g.N())
		}
	}

	res := &BatchPPRResult{
		Vectors: make([]local.SparseVec, len(sources)),
		Sources: append([]int(nil), sources...),
	}
	// The engine pools the workspaces, so a batch over thousands of
	// sources keeps at most Workers workspaces live; only the
	// returned per-source snapshots allocate.
	work := make([]float64, len(sources))
	pool := kernel.NewPool(g.N())
	bd := kernel.BatchDiffuser{
		Method:  kernel.PushACL{Alpha: opt.Alpha, Eps: opt.Eps},
		Workers: opt.Workers,
	}
	_, err := bd.Run(ctx, gstore.Wrap(g), pool, sources, func(i int, ws *kernel.Workspace, st kernel.Stats) error {
		res.Vectors[i] = local.FromWorkspaceP(ws)
		work[i] = st.WorkVolume
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("stream: batch ppr: %w", err)
	}
	for _, w := range work {
		res.TotalWork += w
	}
	return res, nil
}

// TopK returns the k highest-scoring nodes of a sparse vector in
// descending score order (ties broken by node id for determinism).
func TopK(v local.SparseVec, k int) []int {
	ids := v.Support() // sorted by id
	if k > len(ids) {
		k = len(ids)
	}
	// Push supports are O(1/εα), so a full sort is cheap.
	ordered := append([]int(nil), ids...)
	sort.Slice(ordered, func(i, j int) bool {
		a, b := ordered[i], ordered[j]
		if v[a] != v[b] {
			return v[a] > v[b]
		}
		return a < b
	})
	return ordered[:k]
}
