package service

import (
	"bytes"
	"context"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/gstore"
	"repro/internal/par"
	"repro/pkg/api"
)

// Every synchronous query endpoint is answered by the one pipeline in
// this file: resolve the graph → cache key → LRU probe → the
// in-flight table (a request for a key already being computed joins
// that flight) → a batch of flights run by one detached goroutine under
// one compute budget → per-flight cache fill → wait, write, observe.
//
// A batch is the only unit of execution, and it fires as soon as it
// opens. A plain query is a batch of one whose computation is the
// handler's exec* closure. A batch request (ppr:batch,
// localcluster:batch) is K single-seed queries keyed as their twins
// {"seeds":[s]} are: it shares their plain cache slots and flights,
// opens the rest as one batch that runs the twin computation once per
// open seed, concurrently, and splices its reply from their bodies. It
// is a hit if every seed hit.
//
// A computation is handed the graph it reads and nothing else: it takes
// its workspace from g's size class itself. The store's errors and the
// pipeline's own are *api.Error and go to the wire as they are; a
// computation's plain errors are the caller's parameters at fault
// (toAPIError), and a batch names the seed whose input failed.

// query is what a handler hands the pipeline.
type query struct {
	endpoint string
	params   []byte // the post-Normalize request marshalled from its type: canonical as it stands
	compute  computeFunc
	// batch, set for a batch request, names its twin queries; compute
	// answers one of them.
	batch *seedBatch
}

// computeFunc answers a query on g: its encoded reply, with the work
// block under debugWork, and its work. seeds is the seed set of a batch
// request's twin query; a plain query's computation has its own.
type computeFunc func(ctx context.Context, g gstore.Graph, seeds []int, debugWork bool) ([]byte, api.WorkStats, error)

// seedBatch is a batch request's K single-seed queries to endpoint.
type seedBatch struct {
	seeds    []int
	endpoint string
	twin     []byte // the params of the seed-0 twin request
	// splice joins the twins' replies, in seed order, into the batch's.
	splice func(dst []byte, seeds []int, body func(i int) []byte, totalWork float64, work *api.WorkStats) ([]byte, error)
	method string // of the work folded from the seeds'
}

// flight is one cache key being computed. body, work and err are
// written by the batch goroutine before the batch's done is closed and
// are read-only after.
type flight struct {
	key   string
	seeds []int // a batch request's slot: its twin's seed set, one seed of the request's
	batch *batch
	body  []byte
	work  api.WorkStats // rides along to the cache, the histograms and the trace ring
	err   error
}

// batch is the flights one goroutine computes together, filled under
// the table's mutex and frozen once it fires.
type batch struct {
	// query is that of the request that opened the batch: compute runs
	// once per flight.
	query
	g gstore.Graph // the graph every flight is computed on
	// budget bounds the computation: the larger of the server default
	// and the ?timeout_ms= of the request that opened the batch, so an
	// override can extend the budget but a tiny one cannot poison the
	// flights' other waiters.
	budget    time.Duration
	debugWork bool
	flights   []*flight
	done      chan struct{} // closed once every flight is settled
}

// inflight is the table of what is being computed, by cache key.
type inflight struct {
	mu       sync.Mutex
	flights  map[string]*flight
	running  sync.WaitGroup // batches opened and not yet settled
	draining bool
}

// answer is what the pipeline resolved for one request. backend and
// canon are filled as far as resolution got, for the trace ring.
type answer struct {
	body           []byte
	work           *api.WorkStats
	outcome        string // X-Graphd-Cache: hit | miss | shared
	backend, canon string
	scratch        *[]byte // the pooled buffer a batch reply was spliced into
}

// seedSlot is one key a request needs, answered by the cache or a flight.
type seedSlot struct {
	key   string
	seeds []int // as the flight's
	body  []byte
	work  *api.WorkStats
	f     *flight
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
		if a.scratch != nil {
			*a.scratch = a.body
			encodeScratch.Put(a.scratch)
		}
	}
	s.observeQuery(r, status, a.outcome, a.backend, name, a.canon, a.work, start)
}

func (s *Server) resolve(r *http.Request, name string, q query) (a answer, err error) {
	g, id, err := s.store.Get(name)
	if err != nil {
		return a, err
	}
	a.backend = string(g.Backend())
	debugWork := urlParams(r).Get("debug") == "work"
	var one [1]seedSlot
	var batchSlots []seedSlot // a batch's slots; a single query's one slot stays on the stack
	slots, sb := one[:], q.batch
	if sb != nil {
		batchSlots = seedKeys(sb, id)
		a.canon, slots = string(q.params), batchSlots
	} else {
		// ?debug=work replies carry the work block, so they are distinct
		// cache entries from their plain twins.
		key := "q|" + q.endpoint + "|g" + strconv.FormatUint(id, 10) + "|" + string(q.params)
		a.canon = key[len(key)-len(q.params):]
		if debugWork {
			key += "|debug=work"
		}
		one[0].key = key
	}
	misses := s.cache.probe(slots, true)
	a.outcome = "hit"
	opened := false
	ctx := r.Context() // a hit never waits on it: only a miss arms the deadline
	if misses > 0 {
		timeout := s.queryTimeout(r)
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
		// An already-expired request never starts a computation.
		if err := ctx.Err(); err != nil {
			return a, err
		}
		nb := &batch{query: q, g: g, debugWork: debugWork && sb == nil,
			budget: max(s.cfg.QueryTimeout, timeout), done: make(chan struct{})}
		if sb != nil {
			// An out-of-range seed fails the batch before any flight
			// opens, with its twin's words.
			for i, seed := range sb.seeds {
				if seed >= g.N() {
					_, _, err := q.compute(ctx, g, sb.seeds[i:i+1], false)
					return a, err
				}
			}
		}
		if opened, err = s.join(slots, nb, misses); err != nil {
			return a, err
		}
		a.outcome = "shared"
	}
	// Each caller enforces its own deadline (ctx) while waiting; the
	// flights are detached from every client's connection, so they
	// outlive a waiter that gives up and their results are cached even
	// if all of them have. A batch fails with its lowest-index failing
	// seed, named if its input is at fault.
	agg := api.WorkStats{}
	for i := range slots {
		sl := &slots[i]
		if f := sl.f; f != nil {
			select {
			case <-ctx.Done():
				return a, ctx.Err()
			case <-f.batch.done:
			}
			if err := f.err; err != nil {
				if ae, ok := err.(*api.Error); ok && sb != nil && ae.Code == api.CodeInvalidArgument {
					err = api.Errorf(api.CodeInvalidArgument, "seed %d: %s", sb.seeds[i], ae.Message)
				}
				return a, err
			}
			sl.body, sl.work = f.body, workOf(&f.work)
		}
		if w := sl.work; w != nil {
			agg.Pushes += w.Pushes
			agg.WorkVolume += w.WorkVolume
			agg.Steps = max(agg.Steps, w.Steps)
			agg.Terms = max(agg.Terms, w.Terms)
			agg.MaxSupport = max(agg.MaxSupport, w.MaxSupport)
		}
	}
	if opened {
		a.outcome = "miss"
	}
	if sb == nil {
		a.body, a.work = one[0].body, one[0].work
		return a, nil
	}
	// The reply, its work folded in seed order, is spliced into a pooled
	// buffer serveQuery returns once it is written.
	w := agg
	w.Method = sb.method
	a.work = &w
	var work *api.WorkStats
	if debugWork {
		work = &w
	}
	scratch := encodeScratch.Get().(*[]byte)
	if a.body, err = sb.splice((*scratch)[:0], sb.seeds, func(i int) []byte { return batchSlots[i].body }, w.WorkVolume, work); err != nil {
		encodeScratch.Put(scratch)
		return a, err
	}
	a.scratch = scratch
	return a, nil
}

// seedKeys returns a batch request's slots, keyed as their twin
// requests' cache keys are, all K keys cut from one string.
func seedKeys(sb *seedBatch, id uint64) []seedSlot {
	at := bytes.Index(sb.twin, []byte(`"seeds":[0]`)) + len(`"seeds":[`)
	head, tail := "q|"+sb.endpoint+"|g"+strconv.FormatUint(id, 10)+"|"+string(sb.twin[:at]), sb.twin[at+len(`0`):]
	var num [20]byte
	digits := func(seed int) []byte { return strconv.AppendInt(num[:0], int64(seed), 10) }
	n := 0
	for _, seed := range sb.seeds {
		n += len(head) + len(digits(seed)) + len(tail)
	}
	var keys strings.Builder
	keys.Grow(n)
	for _, seed := range sb.seeds {
		keys.WriteString(head)
		keys.Write(digits(seed))
		keys.Write(tail)
	}
	all, slots := keys.String(), make([]seedSlot, len(sb.seeds))
	for i, seed := range sb.seeds {
		n = len(head) + len(digits(seed)) + len(tail)
		slots[i], all = seedSlot{key: all[:n], seeds: sb.seeds[i : i+1]}, all[n:]
	}
	return slots
}

// join gives every slot the cache did not answer a flight under one
// table lock: it joins a key in flight, rereads one that has landed
// since the probe (flights fill the cache before they leave the table)
// and opens the rest in b, which it fires if it opened any. A key an
// earlier slot of the request has just opened is joined, not opened
// twice.
func (s *Server) join(slots []seedSlot, b *batch, misses int) (opened bool, err error) {
	fresh := make([]flight, misses)
	b.flights = make([]*flight, 0, misses)
	t := &s.inflight
	t.mu.Lock()
	for i := range slots {
		if slots[i].body == nil {
			slots[i].f = t.flights[slots[i].key]
		}
	}
	s.cache.probe(slots, false)
	for i := range slots {
		sl := &slots[i]
		if sl.body != nil || sl.f != nil {
			continue
		}
		if sl.f = t.flights[sl.key]; sl.f != nil {
			continue
		}
		// Nothing has opened yet: draining cannot change under the lock.
		if t.draining {
			t.mu.Unlock()
			return false, api.Errorf(api.CodeUnavailable, "server is shutting down")
		}
		sl.f, fresh = &fresh[0], fresh[1:]
		*sl.f = flight{key: sl.key, seeds: sl.seeds, batch: b}
		t.flights[sl.key] = sl.f
		b.flights = append(b.flights, sl.f)
		opened = true
	}
	if opened {
		t.running.Add(1)
		go s.runBatch(b)
	}
	t.mu.Unlock()
	return opened, nil
}

// runBatch computes a fired batch on its own goroutine, one flight per
// call of the query's computation, and settles every flight: those no
// call answered get the run's error. This is the query path's one panic
// guard — the goroutine is outside net/http's per-request recover, and
// a panicking algorithm must fail its flights, not the daemon. (The
// workers par starts for a batch of several flights hand their panics
// back to this goroutine.)
func (s *Server) runBatch(b *batch) {
	ctx, cancel := context.WithTimeout(context.Background(), b.budget)
	var err error
	defer func() {
		cancel()
		if p := recover(); p != nil {
			err = api.Errorf(api.CodeInternal, "internal panic: %v", p)
		}
		// Replies fill the cache before their flights leave the table.
		s.cache.fill(b.flights)
		t := &s.inflight
		t.mu.Lock()
		for _, f := range b.flights {
			delete(t.flights, f.key)
			if f.body == nil && f.err == nil {
				f.err = err
			}
		}
		close(b.done)
		t.mu.Unlock()
		t.running.Done()
	}()
	err = par.ForEachCtx(ctx, 0, len(b.flights), func(i int) error {
		f := b.flights[i]
		f.body, f.work, f.err = b.compute(ctx, b.g, f.seeds, b.debugWork)
		return nil
	})
}

// encodeScratch holds the buffers replies are encoded and spliced into.
var encodeScratch = sync.Pool{New: func() any { return new([]byte) }}

// encodePPR returns r's JSON by its own encoder (whose bytes are
// json.Marshal's) in pooled scratch, copied out once so a cached body is
// no larger than its reply.
func encodePPR(r *api.PPRResponse) ([]byte, error) {
	scratch := encodeScratch.Get().(*[]byte)
	defer encodeScratch.Put(scratch)
	b, err := r.AppendJSON((*scratch)[:0])
	if err != nil {
		return nil, err
	}
	*scratch = b
	return bytes.Clone(b), nil
}
