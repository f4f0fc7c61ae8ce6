package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/gstore"
	"repro/pkg/api"
)

// daemons are the configurations the pipeline's contracts are checked
// on, one subtest each: the default, where every batch fires as soon as
// it opens.
var daemons = []struct {
	name string
	cfg  Config
}{
	{"plain", Config{}},
}

// pprQuery is a single-seed ppr as handlePPR hands it to the pipeline,
// its computation replaced by compute, which its batch of one runs.
func pprQuery(seed int, compute func(ctx context.Context, g gstore.Graph) (any, error)) query {
	req := api.PPRRequest{Seeds: []int{seed}}
	req.Normalize()
	return query{endpoint: "ppr", params: pprParams(&req),
		compute: func(ctx context.Context, g gstore.Graph, _ []int, _ bool) ([]byte, api.WorkStats, error) {
			v, err := compute(ctx, g)
			if err != nil {
				return nil, api.WorkStats{}, err
			}
			body, err := json.Marshal(v)
			return body, api.WorkStats{}, err
		}}
}

// ringRequest is a query request for the "ring" fixture that skipped
// the middleware stack: ctx is the caller's deadline and connection.
func ringRequest(ctx context.Context, rawQuery string) *http.Request {
	r := httptest.NewRequest("POST", "/v1/graphs/ring/ppr?"+rawQuery, nil).WithContext(ctx)
	r.SetPathValue("name", "ring")
	return r
}

// ask serves one request through the pipeline and returns the reply.
func ask(ctx context.Context, srv *Server, rawQuery string, q query) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	srv.serveQuery(w, ringRequest(ctx, rawQuery), q)
	return w
}

// wantCode asserts a recorded reply is the typed error envelope of code.
func wantCode(t *testing.T, w *httptest.ResponseRecorder, code api.ErrorCode) {
	t.Helper()
	var env api.ErrorEnvelope
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || env.Error == nil {
		t.Fatalf("status %d: body is not an error envelope: %s", w.Code, w.Body)
	}
	if env.Error.Code != code || w.Code != code.HTTPStatus() {
		t.Fatalf("status %d, code %q; want %q", w.Code, env.Error.Code, code)
	}
}

// waitCtx is a request context that reports when its holder starts
// waiting on it. The pipeline selects on Done only once it holds a
// flight, which is how a test knows a follower has joined the table
// before it lets the leader finish.
type waitCtx struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func newWaitCtx() *waitCtx {
	return &waitCtx{Context: context.Background(), waiting: make(chan struct{})}
}

func (c *waitCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.waiting) })
	return c.Context.Done()
}

// TestFlightGroupDedup is the in-flight table's dedup contract: while
// a key is being computed every further request for it joins that one
// flight — exactly one execution, every caller handed the same result
// bytes (same backing array, no copies), `shared` for the followers
// only.
func TestFlightGroupDedup(t *testing.T) {
	for _, d := range daemons {
		t.Run(d.name, func(t *testing.T) {
			srv, _, _ := testServer(t, d.cfg)
			const followers = 8
			started, release := make(chan struct{}), make(chan struct{})
			executions := 0
			leader := pprQuery(0, func(context.Context, gstore.Graph) (any, error) {
				executions++ // single-threaded by construction: only the leader computes
				close(started)
				<-release
				return "computed-once", nil
			})
			follower := pprQuery(0, func(context.Context, gstore.Graph) (any, error) {
				t.Error("follower computed despite an in-flight leader")
				return nil, nil
			})

			answers := make(chan answer, followers+1)
			var wg sync.WaitGroup
			resolve := func(ctx context.Context, q query) {
				defer wg.Done()
				a, err := srv.resolve(ringRequest(ctx, ""), "ring", q)
				if err != nil {
					t.Errorf("resolve: %v", err)
				}
				answers <- a
			}
			wg.Add(1)
			go resolve(context.Background(), leader)
			<-started // the leader's batch has fired and is computing
			for i := 0; i < followers; i++ {
				wc := newWaitCtx()
				wg.Add(1)
				go resolve(wc, follower)
				<-wc.waiting
			}
			close(release)
			wg.Wait()
			close(answers)

			if executions != 1 {
				t.Fatalf("computed %d times, want 1", executions)
			}
			var first []byte
			outcomes := map[string]int{}
			for a := range answers {
				if first == nil {
					first = a.body
				}
				if len(a.body) == 0 || &a.body[0] != &first[0] {
					t.Fatal("a caller got a different result slice than the leader computed")
				}
				outcomes[a.outcome]++
			}
			if outcomes["miss"] != 1 || outcomes["shared"] != followers {
				t.Fatalf("outcomes %v, want 1 miss (the leader) and %d shared", outcomes, followers)
			}
		})
	}
}

// TestFlightGroupDistinctKeysDoNotBlock ensures the table only joins
// identical keys: no computation here returns until all of them are
// running, so one flight waiting on another would deadlock the test.
func TestFlightGroupDistinctKeysDoNotBlock(t *testing.T) {
	srv, _, _ := testServer(t, Config{})
	const keys = 4
	var running, wg sync.WaitGroup
	running.Add(keys)
	for i := 0; i < keys; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := pprQuery(i, func(context.Context, gstore.Graph) (any, error) {
				running.Done()
				running.Wait()
				return i, nil
			})
			a, err := srv.resolve(ringRequest(context.Background(), ""), "ring", q)
			if err != nil || a.outcome != "miss" || string(a.body) != fmt.Sprint(i) {
				t.Errorf("key %d: body %q, outcome %q, err %v", i, a.body, a.outcome, err)
			}
		}(i)
	}
	wg.Wait()
}

// TestQueryDeadline pins the wait path's two deadline properties: a
// caller's deadline fires without waiting for the computation, and an
// already-expired request never starts one.
func TestQueryDeadline(t *testing.T) {
	srv, _, _ := testServer(t, Config{})
	release := make(chan struct{})
	defer close(release) // before the cleanup's Close, which waits for the flight
	dctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	w := ask(dctx, srv, "", pprQuery(0, func(context.Context, gstore.Graph) (any, error) {
		<-release
		return nil, nil
	}))
	wantCode(t, w, api.CodeDeadlineExceeded)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline took %v to fire", elapsed)
	}

	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	w = ask(expired, srv, "", pprQuery(1, func(context.Context, gstore.Graph) (any, error) {
		t.Error("computation ran under an expired context")
		return nil, nil
	}))
	wantCode(t, w, api.CodeDeadlineExceeded)
}

// TestTimeoutOverrideOverHTTP is the wire-level deadline contract: a
// deep ppr under ?timeout_ms=1 gets a typed deadline_exceeded (504,
// never another 5xx) while its detached flight keeps computing under
// the server's budget, so once that finishes the repeat is a hit.
func TestTimeoutOverrideOverHTTP(t *testing.T) {
	srv, ts, _ := testServer(t, Config{})
	g, err := gen.ForestFire(gen.ForestFireConfig{N: 5000, FwdProb: 0.37, Ambs: 1}, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Store().Put("big", g); err != nil {
		t.Fatal(err)
	}
	url := ts.URL + "/v1/graphs/big/ppr?timeout_ms=1"
	req := api.PPRRequest{Seeds: []int{0}, Alpha: 0.05, Eps: 1e-8, Sweep: true}
	timedOut := false
	for deadline := time.Now().Add(30 * time.Second); ; {
		status, body, hdr := postWire(t, url, req)
		if status == http.StatusOK {
			if hdr.Get("X-Graphd-Cache") == "hit" {
				break
			}
			continue // joined the flight just as it finished
		}
		var env api.ErrorEnvelope
		if err := json.Unmarshal(body, &env); err != nil || env.Error == nil ||
			status != http.StatusGatewayTimeout || env.Error.Code != api.CodeDeadlineExceeded {
			t.Fatalf("status %d, body %s; want a 504 deadline_exceeded envelope", status, body)
		}
		timedOut = true
		if time.Now().After(deadline) {
			t.Fatal("the detached flight never filled the cache")
		}
		time.Sleep(time.Millisecond)
	}
	if !timedOut {
		t.Fatal("no request timed out: the query is too shallow to test a 1ms deadline")
	}
}

// TestPanicFailsItsFlightOnly drives a panicking computation through
// the pipeline as a batch of one, on the flight's own goroutine: its
// requester gets a typed internal error, a flight computing alongside
// it is answered, and the daemon keeps serving. The same goes for a panic on one of the extra
// goroutines a batch of several flights runs on.
func TestPanicFailsItsFlightOnly(t *testing.T) {
	for _, d := range daemons {
		t.Run(d.name, func(t *testing.T) {
			srv, _, c := testServer(t, d.cfg)
			started, release := make(chan struct{}), make(chan struct{})
			bystander := make(chan *httptest.ResponseRecorder, 1)
			go func() {
				bystander <- ask(context.Background(), srv, "", pprQuery(1, func(context.Context, gstore.Graph) (any, error) {
					close(started)
					<-release
					return "fine", nil
				}))
			}()
			<-started
			w := ask(context.Background(), srv, "", pprQuery(0, func(context.Context, gstore.Graph) (any, error) {
				panic("algorithm bug")
			}))
			wantCode(t, w, api.CodeInternal)
			seeds := make([]int, 20) // twenty flights, on the batch's workers
			for i := range seeds {
				seeds[i] = i
			}
			w = ask(context.Background(), srv, "", query{endpoint: "ppr:batch", params: []byte(`{"panics":true}`),
				compute: func(_ context.Context, _ gstore.Graph, seeds []int, _ bool) ([]byte, api.WorkStats, error) {
					if seeds[0] == 12 {
						panic("algorithm bug in a batch worker")
					}
					return []byte(`"fine"`), api.WorkStats{}, nil
				},
				batch: &seedBatch{seeds: seeds, endpoint: "ppr", twin: []byte(`{"seeds":[0],"panics":true}`), splice: api.AppendPPRBatchJSON}})
			wantCode(t, w, api.CodeInternal)
			close(release)
			if w := <-bystander; w.Code != http.StatusOK || w.Body.String() != "\"fine\"\n" {
				t.Fatalf("bystander flight: status %d, body %s", w.Code, w.Body)
			}
			if _, err := c.Graphs.PPR(ctx(), "ring", api.PPRRequest{Seeds: []int{0}}); err != nil {
				t.Fatalf("query after the panic: %v", err)
			}
		})
	}
}

// TestCloseDrainsInFlightQueries: a flight outlives the client that
// asked for it, so Close must wait for it before the store releases
// (on this backend: unmaps) the graph it is reading, and refuse new
// flights meanwhile.
func TestCloseDrainsInFlightQueries(t *testing.T) {
	srv, _, _ := testServer(t, Config{DataDir: t.TempDir(), Backend: "mmap"})
	started, release := make(chan struct{}), make(chan struct{})
	var finished atomic.Bool
	client, hangUp := context.WithCancel(context.Background())
	replied := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		replied <- ask(client, srv, "", pprQuery(0, func(ctx context.Context, g gstore.Graph) (any, error) {
			close(started)
			<-release
			// Walk the mapped adjacency: a fault if Close got here first.
			out, _, err := execPPR(ctx, g, api.PPRRequest{Seeds: []int{0}, Alpha: 0.15, Eps: 1e-7, TopK: 5}, false)
			finished.Store(true)
			return json.RawMessage(out), err
		}))
	}()
	<-started
	hangUp()
	wantCode(t, <-replied, api.CodeCancelled)

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	// Once a new flight is refused, Close is past the point of no return
	// and can only be waiting for the one still computing.
	for seed, deadline := 1, time.Now().Add(10*time.Second); ; seed++ {
		w := ask(context.Background(), srv, "", pprQuery(seed, func(context.Context, gstore.Graph) (any, error) {
			return "late", nil
		}))
		if w.Code != http.StatusOK {
			wantCode(t, w, api.CodeUnavailable)
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Close never started refusing new flights")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a flight was still computing")
	default:
	}
	close(release)
	<-closed
	if !finished.Load() {
		t.Fatal("Close returned before the in-flight computation finished")
	}
}

// TestCacheCountersAndComputeBudget pins two per-request rules of the
// pipeline.
func TestCacheCountersAndComputeBudget(t *testing.T) {
	// One cache probe per request, whatever its flight does — an
	// out-of-range single seed, which caches nothing, included.
	t.Run("cache counters", func(t *testing.T) {
		srv, ts, _ := testServer(t, Config{})
		for _, seed := range []int{0, 0, 1 << 20, 1 << 20, 7} {
			postWire(t, ts.URL+"/v1/graphs/ring/ppr", api.PPRRequest{Seeds: []int{seed}})
		}
		if hits, misses, _ := srv.cache.Stats(); hits != 1 || misses != 4 {
			t.Fatalf("cache (hits, misses) = (%d, %d), want (1, 4)", hits, misses)
		}
	})

	// One budget rule: the larger of the server default and the
	// ?timeout_ms= of the request that opened the batch.
	t.Run("compute budget", func(t *testing.T) {
		cfg := Config{QueryTimeout: 50 * time.Millisecond}
		srv, _, _ := testServer(t, cfg)
		for seed, tc := range []struct {
			rawQuery string
			budget   time.Duration
		}{
			{"timeout_ms=60000", time.Minute},  // an override extends the budget
			{"timeout_ms=1", cfg.QueryTimeout}, // a tiny one cannot shrink it
			{"", cfg.QueryTimeout},             // the default
		} {
			asked := time.Now()
			var deadline time.Time
			w := ask(context.Background(), srv, tc.rawQuery, pprQuery(seed, func(ctx context.Context, _ gstore.Graph) (any, error) {
				deadline, _ = ctx.Deadline()
				return nil, nil
			}))
			if w.Code != http.StatusOK {
				t.Fatalf("?%s: status %d: %s", tc.rawQuery, w.Code, w.Body)
			}
			if got := deadline.Sub(asked); got < tc.budget || got > tc.budget+10*time.Second {
				t.Errorf("?%s: computed under a %v budget, want %v", tc.rawQuery, got, tc.budget)
			}
		}
	})
}

// reusedExchange is a request and a response writer that one goroutine
// can serve again and again without allocating, so AllocsPerRun sees
// the handler's allocations only.
type reusedExchange struct {
	req     *http.Request
	payload []byte
	body    bytes.Reader
	header  http.Header
	code    int
	out     bytes.Buffer
}

func (x *reusedExchange) Read(p []byte) (int, error) { return x.body.Read(p) }
func (x *reusedExchange) Close() error               { return nil }
func (x *reusedExchange) Header() http.Header        { return x.header }
func (x *reusedExchange) WriteHeader(code int)       { x.code = code }
func (x *reusedExchange) Write(p []byte) (int, error) {
	return x.out.Write(p)
}

func (x *reusedExchange) serve(h http.Handler) {
	x.body.Reset(x.payload)
	x.req.Body = x
	clear(x.header)
	x.out.Reset()
	h.ServeHTTP(x, x.req)
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestCacheHitAllocations locks the request path's floor: a ppr answered
// from the LRU, through the whole middleware stack with telemetry on,
// allocates at most 50 times (81 before the key stopped being re-parsed
// JSON and the query string stopped being parsed three times; 19 once
// the request was decoded and keyed without reflection and a hit armed
// no deadline, 18 since the reply's newline stopped allocating, which
// TestPPRHitAllocs locks). What is left is the request's
// seeds and key, the header values, the routing and the request's
// context copy.
func TestCacheHitAllocations(t *testing.T) {
	srv, _, _ := testServer(t, Config{})
	payload, err := json.Marshal(api.PPRRequest{Seeds: []int{3}})
	if err != nil {
		t.Fatal(err)
	}
	x := &reusedExchange{payload: payload, header: http.Header{}}
	x.req = httptest.NewRequest("POST", "/v1/graphs/ring/ppr", nil)
	x.req.Header.Set("Content-Type", "application/json")
	x.req.ContentLength = int64(len(payload))
	x.serve(srv.Handler()) // the miss that fills the cache
	want := x.out.String()
	allocs := testing.AllocsPerRun(200, func() { x.serve(srv.Handler()) })
	if x.code != http.StatusOK || x.header.Get("X-Graphd-Cache") != "hit" || x.out.String() != want {
		t.Fatalf("status %d, cache %q, body %q; want a hit repeating %q", x.code, x.header.Get("X-Graphd-Cache"), x.out.String(), want)
	}
	if x.header.Get("Content-Length") != strconv.Itoa(len(want)) {
		t.Fatalf("Content-Length %q on a %d-byte reply", x.header.Get("Content-Length"), len(want))
	}
	if allocs > 50 {
		t.Fatalf("a cache hit allocates %v times, want at most 50", allocs)
	}
	t.Logf("a cache hit allocates %v times", allocs)
}

// TestPPRHitAllocs locks the allocations of a warmed ppr hit and of a
// ppr:batch whose seeds all hit, served through srv.Handler() into an
// httptest.ResponseRecorder (its few allocations, and the test's own
// body reader's, count too). The
// bounds are the counts measured when the request side stopped using
// reflection (the body's decode and the cache key's encode; 44 and 55
// before), stopped arming a deadline no hit waits on, and the reply's
// newline stopped allocating (29 and 36 before): any of them coming
// back fails here.
func TestPPRHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool does not retain buffers under the race detector")
	}
	srv, _, _ := testServer(t, Config{})
	h := srv.Handler()
	for _, tc := range []struct {
		path, body string
		max        float64
	}{
		{"/v1/graphs/ring/ppr", `{"seeds":[3],"alpha":0.15,"eps":0.0001,"topk":100}`, 28},
		{"/v1/graphs/ring/ppr:batch", `{"seeds":[3,5,9,3],"alpha":0.15,"eps":0.0001,"topk":100}`, 35},
	} {
		var body bytes.Reader
		req := httptest.NewRequest("POST", tc.path, nil)
		req.Header.Set("Content-Type", "application/json")
		serve := func() *httptest.ResponseRecorder {
			body.Reset([]byte(tc.body))
			req.Body = io.NopCloser(&body)
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			return w
		}
		want := serve().Body.String() // the misses that fill the cache
		var w *httptest.ResponseRecorder
		allocs := testing.AllocsPerRun(200, func() { w = serve() })
		if w.Code != http.StatusOK || w.Header().Get("X-Graphd-Cache") != "hit" || w.Body.String() != want {
			t.Fatalf("%s: status %d, cache %q, body %q; want a hit repeating %q", tc.path, w.Code, w.Header().Get("X-Graphd-Cache"), w.Body, want)
		}
		if allocs > tc.max {
			t.Errorf("%s: a hit allocates %v times, want at most %v", tc.path, allocs, tc.max)
		}
		t.Logf("%s: a hit allocates %v times", tc.path, allocs)
	}
}
