package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/gstore"
	"repro/internal/kernel"
	"repro/internal/local"
	"repro/internal/service"
	"repro/pkg/api"
)

// sizes are the fixed op counts of a run's count-bound phases. They are
// counts, not durations, so faster code shows as a shorter setup and the
// kernel's work counters repeat exactly for a seed.
type sizes struct {
	warmup int // ops sent by the two clients together before measuring
	verify int // ops whose replies are checked against a direct kernel call
	traced int // sequential ops recorded with every span
	allocs int // sequential ops in the handler allocation pass
}

// shrink divides every count, for the smoke test.
func (s sizes) shrink(div int) sizes {
	f := func(n int) int { return max(n/div, 4) }
	return sizes{warmup: f(s.warmup), verify: f(s.verify), traced: f(s.traced), allocs: f(s.allocs)}
}

// workload is one traffic mix. An op is one SDK request, or one whole
// cycle on ingest_cycle; op j of client k is a pure function of the
// seed, so a run's request stream is reproducible.
type workload interface {
	sizes() sizes
	// daemon returns the service configuration and whether it needs a
	// data directory.
	daemon() (cfg service.Config, durable bool)
	// prepare loads what the daemon must hold before the first op and
	// derives the request stream from seed.
	prepare(ctx context.Context, e *env, seed int64, levels int) error
	// op sends op j of client k. A non-nil tracer records its spans (and
	// replays the layers when asked to); a non-nil verifier checks the
	// replies against direct kernel calls.
	op(ctx context.Context, e *env, k, j int, t *opTracer, v *verifier) error
	// layerInput returns the graph, diffusion and seeds the per-layer
	// timings run on: the workload's own graph and parameters.
	layerInput() (*graph.Graph, kernel.PushACL, []int, error)
	// backend is the storage backend the daemon serves this workload's
	// graph from.
	backend() gstore.Kind
}

// served is what every workload says about its daemon: the default
// in-memory heap daemon, or a durable one serving off mmap.
type served struct {
	sz      sizes
	durable bool
}

func (s served) sizes() sizes { return s.sz }

func (s served) backend() gstore.Kind {
	if s.durable {
		return gstore.KindMmap
	}
	return gstore.KindHeap
}

func (s served) daemon() (service.Config, bool) {
	if s.durable {
		return service.Config{Backend: string(gstore.KindMmap)}, true
	}
	return service.Config{}, false
}

// pushOf is the diffusion a ppr request asks for once the API defaults
// are filled in. ppr:batch shares those defaults.
func pushOf(req api.PPRRequest) kernel.PushACL {
	req.Normalize()
	return kernel.PushACL{Alpha: req.Alpha, Eps: req.Eps}
}

var workloadNames = []string{"shallow_miss", "deep_miss", "hot_hit", "batch_mmap", "ingest_cycle"}

func newWorkload(name string) (workload, error) {
	switch name {
	case "shallow_miss":
		return &pprWorkload{served: served{sz: sizes{warmup: 4096, verify: 256, traced: 2000, allocs: 512}}}, nil
	case "deep_miss":
		return &pprWorkload{eps: 1e-6, sweep: true, served: served{sz: sizes{warmup: 256, verify: 64, traced: 300, allocs: 64}}}, nil
	case "hot_hit":
		return &pprWorkload{hot: true, served: served{sz: sizes{warmup: 4096, verify: 256, traced: 2000, allocs: 512}}}, nil
	case "batch_mmap":
		return &batchWorkload{served: served{durable: true, sz: sizes{warmup: 128, verify: 16, traced: 200, allocs: 64}}}, nil
	case "ingest_cycle":
		return &cycleWorkload{served: served{durable: true, sz: sizes{warmup: 64, verify: 16, traced: 200, allocs: 32}}}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

const (
	graphName = "g"
	hotKeys   = 512
	zipfS     = 1.1
	batchK    = 64
)

// bigGraph is the Kronecker graph the four query workloads share and
// the seeded order in which they visit its non-isolated nodes.
type bigGraph struct {
	g     gstore.Graph
	pool  *kernel.Pool // the bench's own pool, for verification and replays
	nodes []int        // non-isolated nodes in seeded order, then its first batchK again
	count int          // len(nodes) without the repeated tail
}

// load asks the daemon to generate the graph from the seed, as a user
// would, and reads it back through the store for the direct calls.
func (b *bigGraph) load(ctx context.Context, e *env, seed int64, levels int) error {
	info, err := e.clients[0].Graphs.Generate(ctx, graphName, api.GenerateRequest{Family: "kronecker", Levels: levels, Seed: seed})
	if err != nil {
		return fmt.Errorf("generating the graph: %w", err)
	}
	g, _, err := e.srv.Store().Get(graphName)
	if err != nil {
		return err
	}
	b.g, b.pool = g, kernel.NewPool(g.N())
	b.nodes = b.nodes[:0]
	for u := 0; u < g.N(); u++ {
		if g.Degree(u) > 0 {
			b.nodes = append(b.nodes, u)
		}
	}
	if len(b.nodes) < batchK {
		return fmt.Errorf("graph %v has only %d non-isolated nodes", info, len(b.nodes))
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(b.nodes), func(i, j int) { b.nodes[i], b.nodes[j] = b.nodes[j], b.nodes[i] })
	b.count = len(b.nodes)
	b.nodes = append(b.nodes, b.nodes[:batchK]...)
	return nil
}

// pprWorkload covers the three single-seed ppr workloads, which differ
// in depth (eps, sweep) and in whether seeds repeat (hot).
type pprWorkload struct {
	served
	eps   float64 // 0: the API default, 1e-4
	sweep bool
	hot   bool
	bigGraph
	// hot only: each client's key sequence — its half of the hot set
	// once (so warm-up touches every key), then Zipf draws.
	streams [numClients][]int
}

func (w *pprWorkload) prepare(ctx context.Context, e *env, seed int64, levels int) error {
	if err := w.load(ctx, e, seed, levels); err != nil {
		return err
	}
	if !w.hot {
		return nil
	}
	hot := min(hotKeys, w.count)
	for k := range w.streams {
		rng := rand.New(rand.NewSource(seed + int64(k+1)<<32))
		zipf := rand.NewZipf(rng, zipfS, 1, uint64(hot-1))
		s := make([]int, 0, 1<<16)
		for i := k; i < hot; i += numClients {
			s = append(s, w.nodes[i])
		}
		for len(s) < cap(s) {
			s = append(s, w.nodes[zipf.Uint64()])
		}
		w.streams[k] = s
	}
	return nil
}

// request returns op j of client k. Misses walk the seeded permutation,
// whose reuse distance (every non-isolated node) is far beyond the
// daemon's 1024-entry cache.
func (w *pprWorkload) request(k, j int) api.PPRRequest {
	var seed int
	if w.hot {
		seed = w.streams[k][j%len(w.streams[k])]
	} else {
		seed = w.nodes[(j*numClients+k)%w.count]
	}
	return api.PPRRequest{Seeds: []int{seed}, Eps: w.eps, Sweep: w.sweep}
}

func (w *pprWorkload) op(ctx context.Context, e *env, k, j int, t *opTracer, v *verifier) error {
	req := w.request(k, j)
	var (
		resp api.PPRResponse
		err  error
	)
	t.roundtrip(func() { resp, err = e.clients[k].Graphs.PPR(ctx, graphName, req) })
	if err != nil {
		return err
	}
	if len(resp.Top) == 0 {
		return errors.New("ppr reply has an empty top list")
	}
	if v != nil {
		if err := v.ppr(w.g, w.pool, req, &resp); err != nil {
			return err
		}
	}
	if t.replaying() {
		return replayPPR(t, w.g, w.pool, []api.PPRRequest{req}, []api.PPRResponse{resp})
	}
	return nil
}

func (w *pprWorkload) layerInput() (*graph.Graph, kernel.PushACL, []int, error) {
	hg, err := gstore.Materialize(w.g)
	return hg, pushOf(w.request(0, 0)), w.nodes[:w.count], err
}

// batchWorkload sends ppr:batch requests of batchK consecutive
// permutation seeds to a durable daemon serving the graph off its
// memory-mapped snapshot.
type batchWorkload struct {
	served
	bigGraph
}

func (w *batchWorkload) prepare(ctx context.Context, e *env, seed int64, levels int) error {
	if err := w.load(ctx, e, seed, levels); err != nil {
		return err
	}
	if got := w.g.Backend(); got != gstore.KindMmap {
		return fmt.Errorf("graph is served from %q, want mmap", got)
	}
	return nil
}

func (w *batchWorkload) request(k, j int) api.PPRBatchRequest {
	start := (j*numClients + k) * batchK % w.count
	return api.PPRBatchRequest{Seeds: w.nodes[start : start+batchK]}
}

func (w *batchWorkload) op(ctx context.Context, e *env, k, j int, t *opTracer, v *verifier) error {
	req := w.request(k, j)
	var (
		resp api.PPRBatchResponse
		err  error
	)
	t.roundtrip(func() { resp, err = e.clients[k].Graphs.PPRBatch(ctx, graphName, req) })
	if err != nil {
		return err
	}
	if len(resp.Results) != len(req.Seeds) {
		return fmt.Errorf("batch reply has %d results for %d seeds", len(resp.Results), len(req.Seeds))
	}
	if v != nil {
		if err := v.batch(ctx, w.g, w.pool, req, &resp); err != nil {
			return err
		}
	}
	if t.replaying() {
		return replayBatch(ctx, t, w.g, w.pool, req, &resp)
	}
	return nil
}

func (w *batchWorkload) layerInput() (*graph.Graph, kernel.PushACL, []int, error) {
	hg, err := gstore.Materialize(w.g)
	return hg, pushOf(api.PPRRequest{}), w.nodes[:w.count], err
}

const (
	cycleNodes    = 4096
	cycleBatches  = 8
	cycleBatchLen = 256
	cycleQueries  = 4
	cyclePool     = 32 // distinct pre-generated cycles per client, reused in turn
)

// cycleWorkload runs the whole write path on a durable daemon: each
// client, on a graph name of its own, opens a stream, appends fsynced
// edge batches, seals (build, snapshot write, mmap open), queries and
// deletes.
type cycleWorkload struct {
	served
	cycles [numClients][cyclePool][cycleBatches][]api.StreamEdge
	pool   *kernel.Pool
}

func (w *cycleWorkload) prepare(_ context.Context, _ *env, seed int64, _ int) error {
	w.pool = kernel.NewPool(cycleNodes)
	for k := range w.cycles {
		rng := rand.New(rand.NewSource(seed + int64(k+1)<<32))
		for c := range w.cycles[k] {
			for b := range w.cycles[k][c] {
				edges := make([]api.StreamEdge, cycleBatchLen)
				for i := range edges {
					u := rng.Intn(cycleNodes)
					// Never a self loop: the first endpoints double as
					// query seeds and must not be isolated.
					v := (u + 1 + rng.Intn(cycleNodes-1)) % cycleNodes
					edges[i] = api.StreamEdge{U: u, V: v}
				}
				w.cycles[k][c][b] = edges
			}
		}
	}
	return nil
}

func (w *cycleWorkload) op(ctx context.Context, e *env, k, j int, t *opTracer, v *verifier) (err error) {
	c := e.clients[k].Graphs
	name := fmt.Sprintf("cycle%d", k)
	batches := &w.cycles[k][j%cyclePool]
	created := false
	defer func() {
		// A cycle that failed half-way must not make the next one collide
		// with its leftovers.
		if err != nil && created {
			_ = c.Delete(ctx, name)
		}
	}()

	t.stage("cycle.create", func() {
		t.roundtrip(func() { _, err = c.Stream(ctx, name, cycleNodes) })
	})
	if err != nil {
		return err
	}
	created = true
	t.stage("cycle.append", func() {
		for _, edges := range batches {
			var n int
			t.roundtrip(func() { n, err = c.AppendEdges(ctx, name, edges) })
			if err == nil && n != len(edges) {
				err = fmt.Errorf("appended %d of %d edges", n, len(edges))
			}
			if err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	var info api.GraphInfo
	t.stage("cycle.seal", func() {
		t.roundtrip(func() { info, err = c.Seal(ctx, name) })
	})
	if err != nil {
		return err
	}
	if !info.Sealed || info.Nodes != cycleNodes || info.Backend != api.BackendMmap || info.Persistence != api.PersistSnapshot {
		return fmt.Errorf("sealed graph is %+v, want a snapshotted %d-node mmap graph", info, cycleNodes)
	}
	reqs := make([]api.PPRRequest, cycleQueries)
	resps := make([]api.PPRResponse, cycleQueries)
	t.stage("cycle.query", func() {
		for i := range reqs {
			reqs[i] = api.PPRRequest{Seeds: []int{batches[0][i].U}}
			t.roundtrip(func() { resps[i], err = c.PPR(ctx, name, reqs[i]) })
			if err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	if v != nil || t.replaying() {
		// The direct kernel calls need the sealed graph, so they run
		// before the delete stage.
		g, _, gerr := e.srv.Store().Get(name)
		if gerr != nil {
			return gerr
		}
		if v != nil {
			for i := range reqs {
				if err = v.ppr(g, w.pool, reqs[i], &resps[i]); err != nil {
					return err
				}
			}
		}
		if t.replaying() {
			for _, edges := range batches {
				if err = replayDecode(t, &api.EdgeBatchRequest{Edges: edges}, new(api.EdgeBatchRequest)); err != nil {
					return err
				}
			}
			if err = replayPPR(t, g, w.pool, reqs, resps); err != nil {
				return err
			}
		}
	}
	t.stage("cycle.delete", func() {
		t.roundtrip(func() { err = c.Delete(ctx, name) })
	})
	created = false
	return err
}

// layerInput builds client 0's first cycle graph the way the store's
// seal does; the diffusion seeds are the first endpoints of its first
// batch, which is where the cycle's own queries start.
func (w *cycleWorkload) layerInput() (*graph.Graph, kernel.PushACL, []int, error) {
	b := graph.NewBuilder(cycleNodes)
	for _, edges := range w.cycles[0][0] {
		for _, ed := range edges {
			b.AddWeightedEdge(ed.U, ed.V, 1)
		}
	}
	hg, err := b.Build()
	seeds := make([]int, cycleBatchLen)
	for i, ed := range w.cycles[0][0][0] {
		seeds[i] = ed.U
	}
	return hg, pushOf(api.PPRRequest{}), seeds, err
}

// replayDecode times what the handler does to a request body before it
// can use it: strict decode, defaults, validation.
func replayDecode(t *opTracer, req any, into api.Request) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	t.span(spanDecode, func() { err = decodeRequest(body, into) })
	return err
}

// replayPPR re-runs, under spans, the layer calls the handler made for
// single-seed ppr requests: decode, pooled push, optional sweep, encode.
func replayPPR(t *opTracer, g gstore.Graph, pool *kernel.Pool, reqs []api.PPRRequest, resps []api.PPRResponse) error {
	for i := range reqs {
		var norm api.PPRRequest
		if err := replayDecode(t, &reqs[i], &norm); err != nil {
			return err
		}
		if err := replayDiffuse(t, g, pool, norm); err != nil {
			return err
		}
		var err error
		t.span(spanEncode, func() { _, err = json.Marshal(&resps[i]) })
		if err != nil {
			return err
		}
	}
	return nil
}

// replayDiffuse is the kernel (and sweep) call of one ppr request on a
// pooled workspace.
func replayDiffuse(t *opTracer, g gstore.Graph, pool *kernel.Pool, req api.PPRRequest) error {
	ws := pool.Get()
	defer pool.Put(ws)
	var (
		st  kernel.Stats
		err error
	)
	t.span(spanKernel, func() { st, err = pushOf(req).Diffuse(g, ws, req.Seeds) })
	if err != nil {
		return err
	}
	t.work.add(st)
	if req.Sweep {
		t.span(spanSweep, func() { _, err = local.WorkspaceSweepCut(g, ws) })
	}
	return err
}

// replayBatch is replayPPR for one ppr:batch request: the kernel call
// is the batch engine, as in the handler.
func replayBatch(ctx context.Context, t *opTracer, g gstore.Graph, pool *kernel.Pool, req api.PPRBatchRequest, resp *api.PPRBatchResponse) error {
	var norm api.PPRBatchRequest
	if err := replayDecode(t, &req, &norm); err != nil {
		return err
	}
	var (
		sts []kernel.Stats
		err error
	)
	bd := kernel.BatchDiffuser{Method: kernel.PushACL{Alpha: norm.Alpha, Eps: norm.Eps}}
	t.span(spanKernel, func() { sts, err = bd.Run(ctx, g, pool, norm.Seeds, nil) })
	if err != nil {
		return err
	}
	for _, st := range sts {
		t.work.add(st)
	}
	t.span(spanEncode, func() { _, err = json.Marshal(resp) })
	return err
}
