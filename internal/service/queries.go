package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/diffusion"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/gstore"
	"repro/internal/kernel"
	"repro/pkg/api"
)

// This file is the execute step of the handler pipeline: pure
// (graph, validated request) → (response, error) functions with no HTTP
// in sight. Handlers decode/validate, the pipeline keys and deduplicates,
// these compute.

func execStats(name string, g gstore.Graph) *api.StatsResponse {
	res := &api.StatsResponse{Name: name, Nodes: g.N(), Edges: g.M(), Volume: g.Volume()}
	for u := 0; u < g.N(); u++ {
		d := g.Degree(u)
		if u == 0 || d < res.MinDegree {
			res.MinDegree = d
		}
		res.MaxDegree = max(res.MaxDegree, d)
		if d == 0 {
			res.Isolated++
		}
	}
	if g.N() > 0 {
		res.AvgDegree = g.Volume() / float64(g.N())
	}
	return res
}

// workFromStats converts the kernel's accounting into the wire form.
// The fields pass through exactly — the ?debug=work contract is that
// the response mirrors kernel.Stats, not a summary of it.
func workFromStats(method string, st kernel.Stats) api.WorkStats {
	return api.WorkStats{
		Method:     method,
		Pushes:     st.Pushes,
		WorkVolume: st.WorkVolume,
		Steps:      st.Steps,
		Terms:      st.Terms,
		MaxSupport: st.MaxSupport,
	}
}

// pprResult assembles one seed set's ppr reply from the workspace a
// push left behind and that push's stats — the one place the single
// and batched paths turn planes into wire types. Top-k and sweep read
// the planes directly on workspace scratch, so what is allocated here
// is the reply itself: the `set` slice, and the `top` slice unless a
// non-nil top has room for it (*top keeps the list).
func pprResult(g gstore.Graph, ws *kernel.Workspace, st kernel.Stats, topK int, sweep bool, top *[]api.NodeMass) (api.PPRResponse, error) {
	var buf []api.NodeMass
	if top != nil {
		buf = (*top)[:0]
	}
	out := api.PPRResponse{
		// The push never shrinks p's support, so its peak is its size.
		Support: st.MaxSupport, Sum: ws.PSum(),
		Pushes: st.Pushes, WorkVolume: st.WorkVolume,
		Top: topMassesWorkspace(ws, st.MaxSupport, topK, buf),
	}
	if top != nil {
		*top = out.Top
	}
	if sweep {
		err := errors.New("local: sweep over empty vector")
		if out.Support > 0 {
			out.Sweep, err = sweepCut(g, ws, ws.SweepOrderP(g))
		}
		if err != nil {
			return api.PPRResponse{}, storeErrf(ErrBadInput, "ppr produced no sweepable support (eps too large?): %v", err)
		}
	}
	return out, nil
}

// sweepCut is the best sweep cut of the k-node order loaded in ws, as a
// reply carries it. The error texts are wire bytes, kept from the
// packages that swept before the kernel did.
func sweepCut(g gstore.Graph, ws *kernel.Workspace, k int) (*api.SweepInfo, error) {
	if k == 0 {
		return nil, errors.New("local: sweep support has only zero-degree nodes")
	}
	prefix, phi := ws.SweepBest(g)
	if prefix == 0 {
		return nil, errors.New("partition: sweep found no valid cut")
	}
	return keepCut(ws, prefix, phi), nil
}

// keepCut copies the best prefix of the loaded sweep order out of the
// workspace.
func keepCut(ws *kernel.Workspace, prefix int, phi float64) *api.SweepInfo {
	return &api.SweepInfo{
		Set: ws.SweepNodes(make([]int, 0, prefix), prefix), Size: prefix,
		Conductance: phi, Prefix: prefix,
	}
}

// betterCut is Nibble's per-step sweep: it sweeps the live walk
// distribution (the R plane) and returns that cut if it strictly
// improves on best, else best. Only an improving step copies its set.
func betterCut(g gstore.Graph, ws *kernel.Workspace, best *api.SweepInfo) *api.SweepInfo {
	ws.SweepOrderR(g)
	prefix, phi := ws.SweepBest(g)
	if prefix == 0 || (best != nil && phi >= best.Conductance) {
		return best
	}
	return keepCut(ws, prefix, phi)
}

// execPPR answers a PPR query on a pooled kernel workspace.
func execPPR(ctx context.Context, g gstore.Graph, pool *kernel.Pool, req api.PPRRequest) (*api.PPRResponse, *api.WorkStats, error) {
	ws := pool.Get()
	defer pool.Put(ws)
	st, err := kernel.PushACL{Alpha: req.Alpha, Eps: req.Eps}.DiffuseContext(ctx, g, ws, req.Seeds)
	if err != nil {
		return nil, nil, err
	}
	out, err := pprResult(g, ws, st, req.TopK, req.Sweep, nil)
	if err != nil {
		return nil, nil, err
	}
	work := workFromStats("push", st)
	return &out, &work, nil
}

// topScratch holds the top lists of replies encoded as soon as selected.
var topScratch = sync.Pool{New: func() any { return new([]api.NodeMass) }}

// pprSeeds is a ppr request less its seed, run for each seed of a
// ppr:batch: a seed's reply is execPPR's for it alone (the batch
// engine is byte-identical per seed), encoded before its top list goes
// back to the pool; an unsweepable support fails its own seed only.
type pprSeeds api.PPRRequest

func (p *pprSeeds) runSeeds(ctx context.Context, v queryView, seeds []int, debugWork bool, emit func(i int, body []byte, work api.WorkStats, err error)) error {
	bd := kernel.BatchDiffuser{Method: kernel.PushACL{Alpha: p.Alpha, Eps: p.Eps}}
	_, err := bd.Run(ctx, v.g, v.pool, seeds, func(i int, ws *kernel.Workspace, st kernel.Stats) error {
		work := workFromStats("push", st)
		top := topScratch.Get().(*[]api.NodeMass)
		out, err := pprResult(v.g, ws, st, p.TopK, p.Sweep, top)
		var body []byte
		if err == nil {
			if debugWork {
				out.Work = &work
			}
			body, err = encodePPR(&out)
		}
		topScratch.Put(top)
		emit(i, body, work, err)
		return nil
	})
	return err
}

func (p *pprSeeds) splice(dst []byte, seeds []int, body func(int) []byte, totalWork float64, work *api.WorkStats) ([]byte, error) {
	return api.AppendPPRBatchJSON(dst, seeds, body, totalWork, work)
}

// clusterSeeds is pprSeeds for the localcluster query.
type clusterSeeds api.LocalClusterRequest

func (c *clusterSeeds) runSeeds(ctx context.Context, v queryView, seeds []int, debugWork bool, emit func(i int, body []byte, work api.WorkStats, err error)) error {
	reply := func(i int, cut *api.SweepInfo, st kernel.Stats) {
		out, work, err := clusterResult(v.g, c.Method, cut, st)
		var body []byte
		if err == nil {
			if debugWork {
				out.Work = &work
			}
			body, err = json.Marshal(out)
		}
		emit(i, body, work, err)
	}
	if c.Method == "nibble" {
		best := make([]*api.SweepInfo, len(seeds))
		bd := kernel.BatchDiffuser{
			Method: kernel.NibbleWalk{Eps: c.Eps, Steps: c.Steps},
			OnStep: func(i, _ int, ws *kernel.Workspace) error {
				best[i] = betterCut(v.g, ws, best[i])
				return nil
			},
		}
		sts, err := bd.Run(ctx, v.g, v.pool, seeds, nil)
		if err != nil {
			return nibbleErr(err)
		}
		for i := range seeds {
			reply(i, best[i], sts[i])
		}
		return nil
	}
	bd := kernel.BatchDiffuser{Method: clusterDiffuser((*api.LocalClusterRequest)(c))}
	_, err := bd.Run(ctx, v.g, v.pool, seeds, func(i int, ws *kernel.Workspace, st kernel.Stats) error {
		cut, _ := sweepCut(v.g, ws, ws.SweepOrderP(v.g)) // nil: no sweepable support
		reply(i, cut, st)
		return nil
	})
	return err
}

// nibbleErr prefixes a failed Nibble walk's error the way its replies
// have always read (TestBatchRepliesMatchTheirGoldens pins the bytes).
func nibbleErr(err error) error { return fmt.Errorf("local: %w", err) }

func (c *clusterSeeds) splice(dst []byte, seeds []int, body func(int) []byte, _ float64, work *api.WorkStats) ([]byte, error) {
	return api.AppendLocalClusterBatchJSON(dst, c.Method, seeds, body, work)
}

func execLocalCluster(ctx context.Context, g gstore.Graph, pool *kernel.Pool, req api.LocalClusterRequest) (*api.LocalClusterResponse, *api.WorkStats, error) {
	ws := pool.Get()
	defer pool.Put(ws)
	var (
		st  kernel.Stats
		cut *api.SweepInfo
		err error
	)
	if req.Method == "nibble" {
		walk := kernel.NibbleWalk{Eps: req.Eps, Steps: req.Steps, OnStep: func(_ int, ws *kernel.Workspace) error {
			cut = betterCut(g, ws, cut)
			return nil
		}}
		if st, err = walk.DiffuseContext(ctx, g, ws, req.Seeds); err != nil {
			err = nibbleErr(err)
		}
	} else if st, err = clusterDiffuser(&req).DiffuseContext(ctx, g, ws, req.Seeds); err == nil {
		cut, _ = sweepCut(g, ws, ws.SweepOrderP(g))
	}
	if err != nil {
		return nil, nil, err
	}
	out, work, err := clusterResult(g, req.Method, cut, st)
	if err != nil {
		return nil, nil, err
	}
	return &out, &work, nil
}

// clusterDiffuser is the diffusion the ppr and heat methods sweep.
func clusterDiffuser(req *api.LocalClusterRequest) kernel.Diffuser {
	if req.Method == "heat" {
		return kernel.HeatKernel{T: req.T, Eps: req.Eps}
	}
	return kernel.PushACL{Alpha: req.Alpha, Eps: req.Eps}
}

// clusterResult assembles a localcluster reply from the method's best
// cut (nil when it found none) and its diffusion's stats.
func clusterResult(g gstore.Graph, method string, cut *api.SweepInfo, st kernel.Stats) (api.LocalClusterResponse, api.WorkStats, error) {
	diffusion, noCut := "push", "ppr produced no sweepable support (eps too large?)"
	switch method {
	case "nibble":
		diffusion, noCut = "nibble", "nibble found no cut (eps too large or too few steps)"
	case "heat":
		diffusion, noCut = "heat", "heat kernel produced no sweepable support (eps too large?)"
	}
	work := workFromStats(diffusion, st)
	if cut == nil {
		return api.LocalClusterResponse{}, work, storeErrf(ErrBadInput, "%s", noCut)
	}
	return api.LocalClusterResponse{
		Method: method, Set: cut.Set, Size: len(cut.Set),
		Conductance: cut.Conductance,
		Volume:      gstore.VolumeOfSet(g, cut.Set),
		Support:     st.MaxSupport,
	}, work, nil
}

// lazyStepsPerCheck is how many lazy-walk steps run between two looks at
// the query's context: k has no cap, so only the deadline bounds a walk.
const lazyStepsPerCheck = 1 << 10

func execDiffuse(ctx context.Context, g *graph.Graph, req api.DiffuseRequest) (*api.DiffuseResponse, *api.WorkStats, error) {
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
		// The walk is repeated multiplication, so walking it in chunks
		// gives the same bits as one call.
		v = seed
		for left := req.K; left > 0 && err == nil; left -= lazyStepsPerCheck {
			if err = ctx.Err(); err == nil {
				v, err = diffusion.LazyWalk(g, v, req.Alpha, min(left, lazyStepsPerCheck))
			}
		}
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

// execSweepCut sweeps a caller's vector on a pooled workspace: by
// mass/degree descending, ties by node id, zero and negative masses
// kept, zero-degree nodes dropped (docs/api.md).
func execSweepCut(g gstore.Graph, pool *kernel.Pool, req api.SweepCutRequest) (*api.SweepInfo, *api.WorkStats, error) {
	ws := pool.Get()
	defer pool.Put(ws)
	k, bad := ws.SweepOrderList(g, len(req.Values), func(i int) (int, float64) {
		return req.Values[i].Node, req.Values[i].Mass
	})
	if bad >= 0 {
		if u := req.Values[bad].Node; u >= g.N() {
			return nil, nil, storeErrf(ErrBadInput, "node %d out of range [0,%d)", u, g.N())
		}
		return nil, nil, storeErrf(ErrBadInput, "node %d appears twice", req.Values[bad].Node)
	}
	cut, err := sweepCut(g, ws, k)
	return cut, nil, err
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
