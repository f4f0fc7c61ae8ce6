package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/gstore"
	"repro/internal/kernel"
	"repro/pkg/api"
)

// Seed coalescing: when Config.CoalesceWindow is positive, concurrent
// single-seed ppr requests that agree on everything except the seed
// (same graph, alpha, eps, topk, sweep, debug flag) are gathered for
// one window and answered by a single kernel batch pass instead of K
// separate pushes. The contract is strict transparency: every caller
// receives exactly the bytes the uncoalesced path would have produced
// (the batch engine is byte-identical per seed), each seed's result
// fills the same cache slot the single-seed flight would have filled,
// and each request observes its own query histogram sample. Only the
// X-Graphd-Cache header betrays the merge ("coalesced" instead of
// "miss" when at least two requests shared the pass) — headers are
// diagnostics, not response bytes.

// maxCoalesceSeeds caps one gather's distinct seeds; a full gather
// fires immediately and later arrivals open a fresh window, so a
// sustained fan-out degrades into back-to-back batches rather than one
// unboundedly large pass.
const maxCoalesceSeeds = 64

// coalesceOut is one seed's share of a fired gather.
type coalesceOut struct {
	body []byte
	work *api.WorkStats
	err  error
	// members is the gather's waiter count at fire time, deciding the
	// "coalesced" vs "miss" header outcome.
	members int
}

// coalesceWaiter is one parked request: which unique seed it wants and
// the channel its handler blocks on.
type coalesceWaiter struct {
	seedIdx int
	ch      chan coalesceOut
}

// coalesceGather accumulates requests for one (graph, params) key
// until its window timer fires or it fills up. Guarded by the owning
// coalescer's mutex until fired; after firing it is owned exclusively
// by the firing goroutine.
type coalesceGather struct {
	g         gstore.Graph
	pool      *kernel.Pool
	req       api.PPRRequest // shared params; Seeds is ignored
	debugWork bool

	seeds   []int       // distinct seeds in arrival order
	keys    []string    // cache key per distinct seed
	seedIdx map[int]int // seed → index into seeds
	waiters []coalesceWaiter
	timer   *time.Timer
	fired   bool
}

// coalescer is the gather registry. One per Server.
type coalescer struct {
	mu      sync.Mutex
	gathers map[string]*coalesceGather
}

// servePPRCoalesced is the single-seed ppr path with coalescing
// enabled. It mirrors serveCached step for step — graph resolution,
// canonical cache key, cache probe, deadline handling, telemetry —
// but parks the request in a gather instead of a singleflight.
func (s *Server) servePPRCoalesced(w http.ResponseWriter, r *http.Request, req api.PPRRequest) {
	start := time.Now()
	name := r.PathValue("name")
	g, id, pool, err := s.store.GetForQuery(name)
	if err != nil {
		s.observeQuery(r, writeError(w, err), "", "", name, "", nil, start)
		return
	}
	backend := string(g.Backend())
	canon, err := canonicalJSON(mustParams(req))
	if err != nil {
		s.observeQuery(r, writeError(w, storeErrf(ErrBadInput, "%v", err)), "", backend, name, "", nil, start)
		return
	}
	debugWork := r.URL.Query().Get("debug") == "work"
	// The cache key is exactly serveCached's: a coalesced fill is a
	// later uncoalesced hit and vice versa.
	key := fmt.Sprintf("q|ppr|g%d|%s", id, canon)
	if debugWork {
		key += "|debug=work"
	}
	if cached, meta, ok := s.cache.GetMeta(key); ok {
		w.Header().Set("X-Graphd-Cache", "hit")
		writeJSONBytes(w, http.StatusOK, cached)
		st, _ := meta.(*api.WorkStats)
		s.observeQuery(r, http.StatusOK, "hit", backend, name, canon, st, start)
		return
	}
	seed := req.Seeds[0]
	if seed < 0 || seed >= g.N() {
		// An out-of-range seed would fail seeding inside the batch and
		// abort its whole block; run it solo through the ordinary path
		// so its error bytes are the single-seed kernel's and its
		// gather-mates are untouched.
		s.serveCached(w, r, "ppr", mustParams(req), func(ctx context.Context, q queryView) (any, *api.WorkStats, error) {
			return execPPR(q.g, q.pool, req)
		})
		return
	}

	gkey := fmt.Sprintf("g%d|a=%v|e=%v|k=%d|s=%t|d=%t", id, req.Alpha, req.Eps, req.TopK, req.Sweep, debugWork)
	ch := make(chan coalesceOut, 1)
	s.coalesce.mu.Lock()
	ga := s.coalesce.gathers[gkey]
	if ga == nil {
		ga = &coalesceGather{
			g: g, pool: pool, req: req, debugWork: debugWork,
			seedIdx: make(map[int]int),
		}
		s.coalesce.gathers[gkey] = ga
		ga.timer = time.AfterFunc(s.cfg.CoalesceWindow, func() { s.fireGather(gkey, ga) })
	}
	idx, ok := ga.seedIdx[seed]
	if !ok {
		idx = len(ga.seeds)
		ga.seedIdx[seed] = idx
		ga.seeds = append(ga.seeds, seed)
		ga.keys = append(ga.keys, key)
	}
	ga.waiters = append(ga.waiters, coalesceWaiter{seedIdx: idx, ch: ch})
	fireNow := len(ga.seeds) >= maxCoalesceSeeds && !ga.fired
	if fireNow {
		ga.fired = true
		delete(s.coalesce.gathers, gkey)
		ga.timer.Stop()
	}
	s.coalesce.mu.Unlock()
	if fireNow {
		go s.runGather(ga)
	}

	select {
	case <-r.Context().Done():
		// The gather keeps running — its result still fills the cache
		// and answers the surviving waiters.
		s.observeQuery(r, writeError(w, r.Context().Err()), "", backend, name, canon, nil, start)
	case out := <-ch:
		if out.err != nil {
			s.observeQuery(r, writeError(w, out.err), "", backend, name, canon, nil, start)
			return
		}
		outcome := "miss"
		if out.members > 1 {
			outcome = "coalesced"
		}
		w.Header().Set("X-Graphd-Cache", outcome)
		writeJSONBytes(w, http.StatusOK, out.body)
		s.observeQuery(r, http.StatusOK, outcome, backend, name, canon, out.work, start)
	}
}

// fireGather is the window timer's callback: detach the gather from
// the registry (unless a size-cap fire already did) and run it.
func (s *Server) fireGather(gkey string, ga *coalesceGather) {
	s.coalesce.mu.Lock()
	if ga.fired {
		s.coalesce.mu.Unlock()
		return
	}
	ga.fired = true
	if s.coalesce.gathers[gkey] == ga {
		delete(s.coalesce.gathers, gkey)
	}
	s.coalesce.mu.Unlock()
	s.runGather(ga)
}

// runGather executes one fired gather: a single batch pass over the
// distinct seeds, assembling per seed exactly the response execPPR
// would build, filling each seed's cache slot, and fanning results out
// to the waiters. Per-seed failures (an unsweepable support) reach
// only that seed's waiters; a batch-level failure (deadline) reaches
// everyone still unanswered.
func (s *Server) runGather(ga *coalesceGather) {
	members := len(ga.waiters)
	outs := make([]coalesceOut, len(ga.seeds))
	// Detached from any one client's connection, bounded by the server
	// default — the same budget a deduplicated flight computes under.
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.QueryTimeout)
	defer cancel()
	bd := kernel.BatchDiffuser{Method: kernel.PushACL{Alpha: ga.req.Alpha, Eps: ga.req.Eps}}
	_, err := bd.Run(ctx, ga.g, ga.pool, ga.seeds, func(i int, ws *kernel.Workspace, st kernel.Stats) error {
		out, err := pprResult(ga.g, ws, st, ga.req.TopK, ga.req.Sweep)
		if err != nil {
			outs[i] = coalesceOut{err: err}
			return nil
		}
		work := workFromStats("push", st)
		if ga.debugWork {
			out.SetWork(work)
		}
		body, err := json.Marshal(&out)
		if err != nil {
			outs[i] = coalesceOut{err: err}
			return nil
		}
		s.cache.AddMeta(ga.keys[i], body, work)
		outs[i] = coalesceOut{body: body, work: work}
		return nil
	})
	if err != nil {
		for i := range outs {
			if outs[i].body == nil && outs[i].err == nil {
				outs[i] = coalesceOut{err: err}
			}
		}
	}
	for _, wt := range ga.waiters {
		out := outs[wt.seedIdx]
		out.members = members
		wt.ch <- out
	}
}
