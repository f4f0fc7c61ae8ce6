package service

import (
	"context"
	"math/rand"

	"repro/internal/diffusion"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/gstore"
	"repro/internal/kernel"
	"repro/internal/local"
	"repro/internal/partition"
	"repro/pkg/api"
)

// This file is the execute step of the handler pipeline: pure
// (graph, validated request) → (response, error) functions with no HTTP
// in sight. Handlers decode/validate, the pipeline keys and deduplicates,
// these compute.

func execStats(name string, g gstore.Graph) *api.StatsResponse {
	res := &api.StatsResponse{
		Name: name, Nodes: g.N(), Edges: g.M(), Volume: g.Volume(),
	}
	if g.N() > 0 {
		min := g.Degree(0)
		max := min
		for u := 1; u < g.N(); u++ {
			d := g.Degree(u)
			if d < min {
				min = d
			}
			if d > max {
				max = d
			}
			if d == 0 {
				res.Isolated++
			}
		}
		if g.Degree(0) == 0 {
			res.Isolated++
		}
		res.MinDegree = min
		res.MaxDegree = max
		res.AvgDegree = g.Volume() / float64(g.N())
	}
	return res
}

// workFromStats converts the kernel's accounting into the wire form.
// The fields pass through exactly — the ?debug=work contract is that
// the response mirrors kernel.Stats, not a summary of it.
func workFromStats(method string, st kernel.Stats) *api.WorkStats {
	return &api.WorkStats{
		Method:     method,
		Pushes:     st.Pushes,
		WorkVolume: st.WorkVolume,
		Steps:      st.Steps,
		Terms:      st.Terms,
		MaxSupport: st.MaxSupport,
	}
}

// pprResult assembles one seed set's ppr reply from the workspace a
// push left behind and that push's stats — the one place the single,
// batched and coalesced paths turn planes into wire types. Top-k and
// sweep read the planes directly on workspace scratch, so what is
// allocated here is the reply itself: the `top` and `set` slices.
func pprResult(g gstore.Graph, ws *kernel.Workspace, st kernel.Stats, topK int, sweep bool) (api.PPRResponse, error) {
	out := api.PPRResponse{
		// The push never shrinks p's support, so its peak is its size.
		Support: st.MaxSupport, Sum: ws.PSum(),
		Pushes: st.Pushes, WorkVolume: st.WorkVolume,
		Top: topMassesWorkspace(ws, st.MaxSupport, topK),
	}
	if sweep {
		sw, err := local.WorkspaceSweepCut(g, ws)
		if err != nil {
			return api.PPRResponse{}, storeErrf(ErrBadInput, "ppr produced no sweepable support (eps too large?): %v", err)
		}
		out.Sweep = &api.SweepInfo{
			Set: sw.Set, Size: len(sw.Set),
			Conductance: sw.Conductance, Prefix: sw.Prefix,
		}
	}
	return out, nil
}

// execPPR answers a PPR query on a pooled kernel workspace.
func execPPR(g gstore.Graph, pool *kernel.Pool, req api.PPRRequest) (*api.PPRResponse, *api.WorkStats, error) {
	ws := pool.Get()
	defer pool.Put(ws)
	st, err := kernel.PushACL{Alpha: req.Alpha, Eps: req.Eps}.Diffuse(g, ws, req.Seeds)
	if err != nil {
		return nil, nil, err
	}
	out, err := pprResult(g, ws, st, req.TopK, req.Sweep)
	if err != nil {
		return nil, nil, err
	}
	return &out, workFromStats("push", st), nil
}

// execPPRSeeds answers K single-seed PPR queries that differ only in
// the seed with one kernel batch pass, emitting per seed exactly what
// execPPR returns for that seed alone (the batch engine is
// byte-identical per seed). An unsweepable support fails its own seed
// only; the returned error (a deadline) is for every seed not emitted.
// emit may run concurrently for distinct indices.
func execPPRSeeds(ctx context.Context, g gstore.Graph, pool *kernel.Pool, req api.PPRRequest, seeds []int, emit func(i int, out *api.PPRResponse, work *api.WorkStats, err error)) error {
	bd := kernel.BatchDiffuser{Method: kernel.PushACL{Alpha: req.Alpha, Eps: req.Eps}}
	_, err := bd.Run(ctx, g, pool, seeds, func(i int, ws *kernel.Workspace, st kernel.Stats) error {
		out, err := pprResult(g, ws, st, req.TopK, req.Sweep)
		emit(i, &out, workFromStats("push", st), err)
		return nil
	})
	return err
}

func execLocalCluster(g gstore.Graph, pool *kernel.Pool, req api.LocalClusterRequest) (*api.LocalClusterResponse, *api.WorkStats, error) {
	var (
		sw      *api.SweepInfo
		support int
		work    *api.WorkStats
	)
	ws := pool.Get()
	defer pool.Put(ws)
	switch req.Method {
	case "ppr":
		st, err := (kernel.PushACL{Alpha: req.Alpha, Eps: req.Eps}).Diffuse(g, ws, req.Seeds)
		if err != nil {
			return nil, nil, err
		}
		work = workFromStats("push", st)
		support = st.MaxSupport
		cut, err := local.WorkspaceSweepCut(g, ws)
		if err != nil {
			return nil, nil, storeErrf(ErrBadInput, "ppr produced no sweepable support (eps too large?)")
		}
		sw = &api.SweepInfo{Set: cut.Set, Size: len(cut.Set), Conductance: cut.Conductance, Prefix: cut.Prefix}
	case "nibble":
		st, best, err := local.NibbleWorkspace(g, ws, req.Seeds, req.Eps, req.Steps)
		if err != nil {
			return nil, nil, err
		}
		work = workFromStats("nibble", st)
		support = st.MaxSupport
		if best == nil {
			return nil, nil, storeErrf(ErrBadInput, "nibble found no cut (eps too large or too few steps)")
		}
		sw = &api.SweepInfo{Set: best.Set, Size: len(best.Set), Conductance: best.Conductance, Prefix: best.Prefix}
	case "heat":
		st, err := kernel.HeatKernel{T: req.T, Eps: req.Eps}.Diffuse(g, ws, req.Seeds)
		if err != nil {
			return nil, nil, err
		}
		work = workFromStats("heat", st)
		support = st.MaxSupport
		cut, err := local.WorkspaceSweepCut(g, ws)
		if err != nil {
			return nil, nil, storeErrf(ErrBadInput, "heat kernel produced no sweepable support (eps too large?)")
		}
		sw = &api.SweepInfo{Set: cut.Set, Size: len(cut.Set), Conductance: cut.Conductance, Prefix: cut.Prefix}
	}
	return &api.LocalClusterResponse{
		Method: req.Method, Set: sw.Set, Size: sw.Size,
		Conductance: sw.Conductance,
		Volume:      gstore.VolumeOfSet(g, sw.Set),
		Support:     support,
	}, work, nil
}

// aggregateBatchWork folds per-seed kernel stats into the ?debug=work
// view of a batch: sums over the additive counters, maxima over the
// locality measures.
func aggregateBatchWork(method string, sts []kernel.Stats) *api.WorkStats {
	var agg kernel.Stats
	for _, st := range sts {
		agg.Pushes += st.Pushes
		agg.WorkVolume += st.WorkVolume
		if st.Steps > agg.Steps {
			agg.Steps = st.Steps
		}
		if st.Terms > agg.Terms {
			agg.Terms = st.Terms
		}
		if st.MaxSupport > agg.MaxSupport {
			agg.MaxSupport = st.MaxSupport
		}
	}
	return workFromStats(method, agg)
}

// execPPRBatch answers a batched PPR query on the kernel batch engine:
// one push per seed, each on its own pooled workspace.
// Each per-seed result carries exactly the numbers the single-seed
// endpoint would return for that seed; any seed failing (out of range,
// unsweepable support) fails the whole batch, mirroring the
// single-seed error surface.
func execPPRBatch(ctx context.Context, g gstore.Graph, pool *kernel.Pool, req api.PPRBatchRequest) (*api.PPRBatchResponse, *api.WorkStats, error) {
	out := &api.PPRBatchResponse{Results: make([]api.PPRBatchResult, len(req.Seeds))}
	bd := kernel.BatchDiffuser{Method: kernel.PushACL{Alpha: req.Alpha, Eps: req.Eps}}
	sts, err := bd.Run(ctx, g, pool, req.Seeds, func(i int, ws *kernel.Workspace, st kernel.Stats) error {
		res, err := pprResult(g, ws, st, req.TopK, req.Sweep)
		if err != nil {
			return storeErrf(ErrBadInput, "seed %d: %v", req.Seeds[i], err)
		}
		out.Results[i] = api.PPRBatchResult{
			Seed:    req.Seeds[i],
			Support: res.Support, Sum: res.Sum,
			Pushes: res.Pushes, WorkVolume: res.WorkVolume,
			Top: res.Top, Sweep: res.Sweep,
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	for _, st := range sts {
		out.TotalWork += st.WorkVolume
	}
	return out, aggregateBatchWork("push-batch", sts), nil
}

// execLocalClusterBatch is execLocalCluster over one seed per entry,
// on the kernel batch engine.
func execLocalClusterBatch(ctx context.Context, g gstore.Graph, pool *kernel.Pool, req api.LocalClusterBatchRequest) (*api.LocalClusterBatchResponse, *api.WorkStats, error) {
	out := &api.LocalClusterBatchResponse{
		Method:  req.Method,
		Results: make([]api.LocalClusterBatchResult, len(req.Seeds)),
	}
	sweepResult := func(i, support int, set []int, conductance float64) {
		out.Results[i] = api.LocalClusterBatchResult{
			Seed: req.Seeds[i], Set: set, Size: len(set),
			Conductance: conductance,
			Volume:      gstore.VolumeOfSet(g, set),
			Support:     support,
		}
	}
	var (
		sts []kernel.Stats
		err error
	)
	switch req.Method {
	case "ppr":
		bd := kernel.BatchDiffuser{Method: kernel.PushACL{Alpha: req.Alpha, Eps: req.Eps}}
		sts, err = bd.Run(ctx, g, pool, req.Seeds, func(i int, ws *kernel.Workspace, st kernel.Stats) error {
			cut, err := local.WorkspaceSweepCut(g, ws)
			if err != nil {
				return storeErrf(ErrBadInput, "seed %d: ppr produced no sweepable support (eps too large?)", req.Seeds[i])
			}
			sweepResult(i, st.MaxSupport, cut.Set, cut.Conductance)
			return nil
		})
	case "nibble":
		var best []*partition.SweepResult
		sts, best, err = local.NibbleBatch(ctx, g, pool, req.Seeds, req.Eps, req.Steps)
		if err == nil {
			for i, cut := range best {
				if cut == nil {
					return nil, nil, storeErrf(ErrBadInput, "seed %d: nibble found no cut (eps too large or too few steps)", req.Seeds[i])
				}
				sweepResult(i, sts[i].MaxSupport, cut.Set, cut.Conductance)
			}
		}
	case "heat":
		bd := kernel.BatchDiffuser{Method: kernel.HeatKernel{T: req.T, Eps: req.Eps}}
		sts, err = bd.Run(ctx, g, pool, req.Seeds, func(i int, ws *kernel.Workspace, st kernel.Stats) error {
			cut, err := local.WorkspaceSweepCut(g, ws)
			if err != nil {
				return storeErrf(ErrBadInput, "seed %d: heat kernel produced no sweepable support (eps too large?)", req.Seeds[i])
			}
			sweepResult(i, st.MaxSupport, cut.Set, cut.Conductance)
			return nil
		})
	}
	if err != nil {
		return nil, nil, err
	}
	return out, aggregateBatchWork(req.Method+"-batch", sts), nil
}

func execDiffuse(g *graph.Graph, req api.DiffuseRequest) (*api.DiffuseResponse, *api.WorkStats, error) {
	seed, err := diffusion.SeedVector(g.N(), req.Seeds)
	if err != nil {
		return nil, nil, err
	}
	var v []float64
	switch req.Kind {
	case "heat":
		v, err = diffusion.HeatKernel(g, seed, req.T, diffusion.HeatKernelOptions{})
	case "ppr":
		v, err = diffusion.PageRank(g, seed, req.Gamma, diffusion.PageRankOptions{})
	case "lazy":
		v, err = diffusion.LazyWalk(g, seed, req.Alpha, req.K)
	}
	if err != nil {
		return nil, nil, err
	}
	var sum float64
	support := 0
	for _, x := range v {
		sum += x
		if x != 0 {
			support++
		}
	}
	// Dense diffusions have no strongly-local accounting; report the
	// coarse truth — one full sweep is a whole graph volume of work.
	work := &api.WorkStats{
		Method:     "dense-" + req.Kind,
		WorkVolume: g.Volume(),
		MaxSupport: support,
	}
	return &api.DiffuseResponse{Kind: req.Kind, Sum: sum, Top: topMassesDense(v, support, req.TopK)}, work, nil
}

func execSweepCut(g gstore.Graph, req api.SweepCutRequest) (*api.SweepInfo, *api.WorkStats, error) {
	v := make(local.SparseVec, len(req.Values))
	for _, nm := range req.Values {
		if nm.Node < 0 || nm.Node >= g.N() {
			return nil, nil, storeErrf(ErrBadInput, "node %d out of range [0,%d)", nm.Node, g.N())
		}
		v[nm.Node] = nm.Mass
	}
	cut, err := local.SweepCut(g, v)
	if err != nil {
		return nil, nil, err
	}
	return &api.SweepInfo{
		Set: cut.Set, Size: len(cut.Set),
		Conductance: cut.Conductance, Prefix: cut.Prefix,
	}, nil, nil
}

// Generator size caps: server-side synthesis runs synchronously on the
// request goroutine, so a single request must not be able to allocate
// unbounded memory or run for minutes.
const (
	maxGenNodes  = 5_000_000
	maxGenEdges  = 50_000_000
	maxGenLevels = 22 // 2^22 ≈ 4.2M nodes
)

// generate synthesizes a graph from a validated GenerateRequest. The
// family/knob checks already happened in Validate; this enforces the
// server's resource caps and calls the generator.
func generate(req api.GenerateRequest) (*graph.Graph, error) {
	rng := rand.New(rand.NewSource(req.Seed))
	switch req.Family {
	case "kronecker":
		levels := req.Levels
		if levels <= 0 {
			levels = 12
		}
		if levels > maxGenLevels || req.Edges > maxGenEdges {
			return nil, storeErrf(ErrBadInput, "kronecker capped at levels <= %d and edges <= %d", maxGenLevels, maxGenEdges)
		}
		return gen.Kronecker(gen.KroneckerConfig{Levels: levels, Edges: req.Edges}, rng)
	case "forestfire":
		n := req.N
		if n <= 0 {
			n = 10000
		}
		if n > maxGenNodes {
			return nil, storeErrf(ErrBadInput, "forestfire capped at n <= %d", maxGenNodes)
		}
		p := req.P
		if p <= 0 {
			p = 0.37
		}
		return gen.ForestFire(gen.ForestFireConfig{N: n, FwdProb: p, Ambs: 1}, rng)
	case "erdosrenyi":
		if req.N > maxGenNodes || req.P*float64(req.N)*float64(req.N)/2 > maxGenEdges {
			return nil, storeErrf(ErrBadInput, "erdosrenyi capped at n <= %d and expected edges <= %d", maxGenNodes, maxGenEdges)
		}
		return gen.ErdosRenyi(req.N, req.P, rng)
	case "grid":
		if req.Rows > maxGenNodes/max(req.Cols, 1) {
			return nil, storeErrf(ErrBadInput, "grid capped at rows*cols <= %d", maxGenNodes)
		}
		return gen.Grid(req.Rows, req.Cols), nil
	case "ring_of_cliques":
		if err := capCliqueFamily(req.K, req.CliqueN); err != nil {
			return nil, err
		}
		return gen.RingOfCliques(req.K, req.CliqueN), nil
	default: // "caveman"; Validate admits nothing else
		if err := capCliqueFamily(req.K, req.CliqueN); err != nil {
			return nil, err
		}
		return gen.Caveman(req.K, req.CliqueN), nil
	}
}

// capCliqueFamily bounds k cliques of size c: k·c nodes and k·c²/2 edges.
func capCliqueFamily(k, c int) error {
	if k > maxGenNodes/c || float64(k)*float64(c)*float64(c)/2 > maxGenEdges {
		return storeErrf(ErrBadInput, "clique family capped at k*clique_n <= %d nodes and %d edges", maxGenNodes, maxGenEdges)
	}
	return nil
}
