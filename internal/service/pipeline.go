package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/gstore"
	"repro/internal/kernel"
	"repro/pkg/api"
)

// Every synchronous query endpoint is answered by the one pipeline in
// this file: resolve the graph → cache key → LRU probe → the
// in-flight table (a request for a key already being computed joins
// that flight) → a batch of flights run by one detached goroutine under
// one compute budget → per-flight cache fill → wait, write, observe.
//
// A batch is the only unit of execution. Most are batches of one whose
// computation is the handler's exec* closure. Single-seed ppr flights
// that agree on everything but the seed may share a batch — one kernel
// batch pass instead of K pushes — which fires when CoalesceWindow
// elapses or at maxBatchKeys; with the window at 0 (the default) a
// batch fires at once with its one member, so deduplicating identical
// requests is simply the window-0 case of coalescing. Either way every
// caller receives exactly the bytes a solo computation produces (the
// batch engine is byte-identical per seed) and every key fills the same
// cache slot; only the X-Graphd-Cache header tells them apart.

// maxBatchKeys caps one gathered batch; a full batch fires immediately
// and later arrivals open the next, so a sustained fan-out degrades
// into back-to-back passes rather than one unboundedly large one.
const maxBatchKeys = 64

// query is what a handler hands the pipeline.
type query struct {
	endpoint string
	params   []byte // the post-Normalize request marshalled from its type: canonical as it stands
	compute  func(ctx context.Context, q queryView) (any, *api.WorkStats, error)
	// ppr, set for a single-seed ppr, lets the flight share a batch with
	// flights that differ from it only in the seed.
	ppr *api.PPRRequest
}

// queryView is what the pipeline hands each compute function: the
// graph's serving view (whichever backend it lives on), the store id it
// was resolved under, and its pooled kernel workspaces.
type queryView struct {
	g    gstore.Graph
	id   uint64
	pool *kernel.Pool
}

// flight is one cache key being computed. body, work and err are
// written by the batch goroutine before done is closed and are
// read-only after.
type flight struct {
	key   string
	seed  int // the flight's seed when its batch is a ppr gather
	batch *batch
	done  chan struct{}
	body  []byte
	work  *api.WorkStats // rides along to the cache, the histograms and the trace ring
	err   error
}

// batch is the flights one goroutine computes together. flights grows
// under the table's mutex while the batch gathers and is frozen once
// it fires.
type batch struct {
	// query is that of the request that opened the batch: compute runs
	// its flight alone, ppr holds the params a gather's flights share.
	query
	view queryView
	// budget bounds the computation: the larger of the server default
	// and the ?timeout_ms= of the request that opened the batch, so an
	// override can extend the budget but a tiny one cannot poison the
	// flights' other waiters.
	budget    time.Duration
	debugWork bool
	flights   []*flight
	timer     *time.Timer // non-nil while gathering
}

// inflight is the table of what is being computed, by cache key, plus
// the batches still gathering, by group key.
type inflight struct {
	mu        sync.Mutex
	flights   map[string]*flight
	gathering map[string]*batch
	running   sync.WaitGroup // batches opened and not yet settled
	draining  bool
}

// answer is what the pipeline resolved for one request. backend and
// canon are filled as far as resolution got, for the trace ring.
type answer struct {
	body           []byte
	work           *api.WorkStats
	outcome        string // X-Graphd-Cache: hit | miss | shared | coalesced
	backend, canon string
}

// serveQuery is the HTTP shell of the pipeline: resolve the answer,
// write it, and only then feed the telemetry sinks.
func (s *Server) serveQuery(w http.ResponseWriter, r *http.Request, q query) {
	start := time.Now()
	name := r.PathValue("name")
	a, err := s.resolve(r, name, q)
	status := http.StatusOK
	if err != nil {
		status = writeError(w, err)
	} else {
		w.Header().Set("X-Graphd-Cache", a.outcome)
		writeJSONBytes(w, status, a.body)
	}
	s.observeQuery(r, status, a.outcome, a.backend, name, a.canon, a.work, start)
}

func (s *Server) resolve(r *http.Request, name string, q query) (a answer, err error) {
	g, id, pool, err := s.store.GetForQuery(name)
	if err != nil {
		return a, err
	}
	a.backend = string(g.Backend())
	debugWork := urlParams(r).Get("debug") == "work"
	// ?debug=work replies carry the work block, so they are distinct
	// cache entries from their plain twins.
	key := "q|" + q.endpoint + "|g" + strconv.FormatUint(id, 10) + "|" + string(q.params)
	at := len(key) - len(q.params)
	a.canon = key[at:]
	if debugWork {
		key += "|debug=work"
	}
	if body, work, ok := s.cache.Get(key); ok {
		a.body, a.work, a.outcome = body, work, "hit"
		return a, nil
	}
	// An already-expired request never starts a computation.
	if err := r.Context().Err(); err != nil {
		return a, err
	}
	// The one decision between gathering and firing at once. An
	// out-of-range seed would abort its whole kernel batch, so it flies
	// alone: its error bytes are the single-seed kernel's and its
	// would-be batch-mates are untouched.
	var gkey string
	seed := 0
	if p := q.ppr; p != nil && s.cfg.CoalesceWindow > 0 && p.Seeds[0] < g.N() {
		seed = p.Seeds[0]
		// The batch key is the cache key without the seed, which the
		// params of a single-seed ppr open with: {"seeds":[<seed>],…
		gkey = key[:at] + key[at+bytes.IndexByte(q.params, ']'):]
	}
	f, joined, err := s.join(key, gkey, seed, &batch{
		query:     q,
		view:      queryView{g: g, id: id, pool: pool},
		budget:    max(s.cfg.QueryTimeout, s.queryTimeout(r)),
		debugWork: debugWork,
	})
	if err != nil {
		return a, err
	}
	// Each caller enforces its own deadline (attached to r.Context() by
	// withDeadline) while waiting; the flight is detached from
	// every client's connection, so it outlives a waiter that gives up
	// and its result is cached even if all of them have.
	select {
	case <-r.Context().Done():
		return a, r.Context().Err()
	case <-f.done:
	}
	if f.err != nil {
		return a, f.err
	}
	a.body, a.work = f.body, f.work
	switch {
	case joined:
		a.outcome = "shared"
	case len(f.batch.flights) > 1:
		a.outcome = "coalesced"
	default:
		a.outcome = "miss"
	}
	return a, nil
}

// join returns the flight computing key, joined reporting whether it
// was already in flight (gathering or running alike). Otherwise it
// opens one: in the batch gathering under gkey, or — when there is none
// — in nb, which starts gathering if gkey is set and fires at once if
// not.
func (s *Server) join(key, gkey string, seed int, nb *batch) (f *flight, joined bool, err error) {
	t := &s.inflight
	t.mu.Lock()
	if f = t.flights[key]; f != nil {
		t.mu.Unlock()
		return f, true, nil
	}
	if t.draining {
		t.mu.Unlock()
		return nil, false, storeErrf(ErrUnavailable, "server is shutting down")
	}
	b := t.gathering[gkey]
	if b == nil {
		b = nb
		t.running.Add(1)
		if gkey != "" {
			t.gathering[gkey] = b
			b.timer = time.AfterFunc(s.cfg.CoalesceWindow, func() {
				t.mu.Lock()
				delete(t.gathering, gkey)
				t.mu.Unlock()
				s.runBatch(b)
			})
		}
	}
	f = &flight{key: key, seed: seed, batch: b, done: make(chan struct{})}
	t.flights[key] = f
	b.flights = append(b.flights, f)
	// A batch that does not gather fires at once, a full one as soon as
	// it is full — unless its timer is already doing so (Stop fails).
	fire := b.timer == nil || len(b.flights) >= maxBatchKeys && b.timer.Stop()
	if fire {
		delete(t.gathering, gkey)
	}
	t.mu.Unlock()
	if fire {
		go s.runBatch(b)
	}
	return f, false, nil
}

// runBatch computes a fired batch on its own goroutine and settles
// every flight: those the computation did not answer get its error.
// This is the query path's one panic guard — the goroutine is outside
// net/http's per-request recover, and a panicking algorithm must fail
// its flights, not the daemon. (The workers par starts for a batch of
// several seeds hand their panics back to this goroutine.)
func (s *Server) runBatch(b *batch) {
	ctx, cancel := context.WithTimeout(context.Background(), b.budget)
	var err error
	defer func() {
		cancel()
		if p := recover(); p != nil {
			err = api.Errorf(api.CodeInternal, "internal panic: %v", p)
		}
		t := &s.inflight
		t.mu.Lock()
		for _, f := range b.flights {
			delete(t.flights, f.key)
			if f.body == nil && f.err == nil {
				f.err = err
			}
			close(f.done)
		}
		t.mu.Unlock()
		t.running.Done()
	}()
	if len(b.flights) == 1 {
		v, work, cerr := b.compute(ctx, b.view)
		s.fill(b.flights[0], v, work, cerr)
		return
	}
	seeds := make([]int, len(b.flights))
	for i, f := range b.flights {
		seeds[i] = f.seed
	}
	err = execPPRSeeds(ctx, b.view.g, b.view.pool, *b.ppr, seeds, func(i int, out *api.PPRResponse, work *api.WorkStats, err error) {
		s.fill(b.flights[i], out, work, err)
	})
}

// fill answers one flight with a computation's outcome: the encoded
// response (carrying the work block under ?debug=work) also fills the
// flight's cache slot, with the work stats so hits re-observe them.
func (s *Server) fill(f *flight, v any, work *api.WorkStats, err error) {
	if err == nil {
		if wc, ok := v.(api.WorkCarrier); ok && f.batch.debugWork && work != nil {
			wc.SetWork(work)
		}
		f.body, err = encodeBody(v)
	}
	if err != nil {
		f.err = err
		return
	}
	f.work = work
	s.cache.Add(f.key, f.body, work)
}

// encodeScratch holds the buffers the ppr replies are encoded into.
var encodeScratch = sync.Pool{New: func() any { return new([]byte) }}

// encodeBody returns v's JSON: the ppr replies by their own encoder
// (whose bytes are json.Marshal's) into pooled scratch, copied out once
// so a cached body is no larger than its reply; the rest by json.Marshal.
func encodeBody(v any) ([]byte, error) {
	enc, ok := v.(interface{ AppendJSON([]byte) ([]byte, error) })
	if !ok {
		return json.Marshal(v)
	}
	scratch := encodeScratch.Get().(*[]byte)
	defer encodeScratch.Put(scratch)
	b, err := enc.AppendJSON((*scratch)[:0])
	if err != nil {
		return nil, err
	}
	*scratch = b
	return bytes.Clone(b), nil
}
