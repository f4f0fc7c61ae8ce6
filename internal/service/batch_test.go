package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/gstore"
	"repro/pkg/api"
)

// TestPPRBatchMatchesSingleSeed locks the batch endpoint's core
// contract: every per-seed result carries exactly the numbers the
// single-seed endpoint returns for {"seeds":[s]} with the same
// parameters — including bit-exact floats, which is how the kernel
// batch engine's byte-identity surfaces on the wire.
func TestPPRBatchMatchesSingleSeed(t *testing.T) {
	_, _, c := testServer(t, Config{})
	seeds := []int{0, 9, 17, 9, 40} // includes a duplicate
	req := api.PPRBatchRequest{Seeds: seeds, Alpha: 0.12, Eps: 1e-5, TopK: 20, Sweep: true}
	batch, err := c.Graphs.PPRBatch(ctx(), "ring", req)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != len(seeds) {
		t.Fatalf("got %d results, want %d", len(batch.Results), len(seeds))
	}
	var totalWork float64
	for i, seed := range seeds {
		single, err := c.Graphs.PPR(ctx(), "ring", api.PPRRequest{
			Seeds: []int{seed}, Alpha: req.Alpha, Eps: req.Eps, TopK: req.TopK, Sweep: req.Sweep,
		})
		if err != nil {
			t.Fatal(err)
		}
		r := batch.Results[i]
		if r.Seed != seed {
			t.Fatalf("result %d: seed %d, want %d", i, r.Seed, seed)
		}
		if r.Support != single.Support || r.Pushes != single.Pushes ||
			math.Float64bits(r.Sum) != math.Float64bits(single.Sum) ||
			math.Float64bits(r.WorkVolume) != math.Float64bits(single.WorkVolume) {
			t.Fatalf("seed %d: batch %+v != single %+v", seed, r, single)
		}
		if !reflect.DeepEqual(r.Top, single.Top) {
			t.Fatalf("seed %d: top lists differ:\nbatch  %v\nsingle %v", seed, r.Top, single.Top)
		}
		if !reflect.DeepEqual(r.Sweep, single.Sweep) {
			t.Fatalf("seed %d: sweeps differ:\nbatch  %+v\nsingle %+v", seed, r.Sweep, single.Sweep)
		}
		totalWork += single.WorkVolume
	}
	if math.Float64bits(batch.TotalWork) != math.Float64bits(totalWork) {
		t.Fatalf("TotalWork %v, want %v", batch.TotalWork, totalWork)
	}
}

func TestLocalClusterBatchMatchesSingleSeed(t *testing.T) {
	_, _, c := testServer(t, Config{})
	seeds := []int{3, 21, 50}
	for _, method := range []string{"ppr", "nibble", "heat"} {
		batch, err := c.Graphs.LocalClusterBatch(ctx(), "ring", api.LocalClusterBatchRequest{
			Method: method, Seeds: seeds,
		})
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if batch.Method != method || len(batch.Results) != len(seeds) {
			t.Fatalf("%s: %+v", method, batch)
		}
		for i, seed := range seeds {
			single, err := c.Graphs.LocalCluster(ctx(), "ring", api.LocalClusterRequest{
				Method: method, Seeds: []int{seed},
			})
			if err != nil {
				t.Fatalf("%s seed %d: %v", method, seed, err)
			}
			r := batch.Results[i]
			if r.Seed != seed || r.Size != single.Size || r.Support != single.Support ||
				math.Float64bits(r.Conductance) != math.Float64bits(single.Conductance) ||
				math.Float64bits(r.Volume) != math.Float64bits(single.Volume) ||
				!reflect.DeepEqual(r.Set, single.Set) {
				t.Fatalf("%s seed %d:\nbatch  %+v\nsingle %+v", method, seed, r, single)
			}
		}
	}
}

func TestPPRBatchValidation(t *testing.T) {
	_, ts, c := testServer(t, Config{})
	// Too many seeds.
	big := make([]int, api.MaxBatchSeeds+1)
	_, err := c.Graphs.PPRBatch(ctx(), "ring", api.PPRBatchRequest{Seeds: big})
	wantAPIErr(t, err, api.CodeInvalidArgument)
	// Negative seed.
	_, err = c.Graphs.PPRBatch(ctx(), "ring", api.PPRBatchRequest{Seeds: []int{0, -1}})
	wantAPIErr(t, err, api.CodeInvalidArgument)
	// Empty seed list.
	_, err = c.Graphs.PPRBatch(ctx(), "ring", api.PPRBatchRequest{})
	wantAPIErr(t, err, api.CodeInvalidArgument)
	// Bad alpha.
	_, err = c.Graphs.PPRBatch(ctx(), "ring", api.PPRBatchRequest{Seeds: []int{0}, Alpha: 1.5})
	wantAPIErr(t, err, api.CodeInvalidArgument)
	// Out-of-range seed surfaces as a 4xx through the wire.
	status, _, _ := postWire(t, ts.URL+"/v1/graphs/ring/ppr:batch", api.PPRBatchRequest{Seeds: []int{1 << 20}})
	if status != http.StatusBadRequest {
		t.Fatalf("out-of-range seed: status %d, want 400", status)
	}
	// Unknown method on the localcluster twin.
	_, err = c.Graphs.LocalClusterBatch(ctx(), "ring", api.LocalClusterBatchRequest{Method: "push", Seeds: []int{0}})
	wantAPIErr(t, err, api.CodeInvalidArgument)
}

// postBatch sends one batch request and returns its status, body and
// X-Graphd-Cache outcome.
func postBatch(t *testing.T, ts *httptest.Server, path string, req any) (int, string, string) {
	t.Helper()
	status, body, hdr := postWire(t, ts.URL+"/v1/graphs/ring/"+path, req)
	return status, string(body), hdr.Get("X-Graphd-Cache")
}

// postFrom is postWire for a goroutine other than the test's: a failure
// is returned, for the caller to report with t.Error.
func postFrom(url string, req any) (status int, body []byte, outcome string, err error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return 0, nil, "", err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		return 0, nil, "", err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	return resp.StatusCode, body, resp.Header.Get("X-Graphd-Cache"), err
}

// TestBatchFillsSingleSeedSlots: a batch request is K single-seed
// queries, so it leaves each seed's reply in the slot the single-seed
// request reads — a later ppr or localcluster for a batch seed is a hit
// with the bytes a cold daemon computes for it — and nothing else.
func TestBatchFillsSingleSeedSlots(t *testing.T) {
	srv, ts, _ := testServer(t, Config{})
	_, cold, _ := testServer(t, Config{})
	if status, body, outcome := postBatch(t, ts, "ppr:batch", api.PPRBatchRequest{Seeds: []int{3, 17, 3}, Alpha: 0.12, Sweep: true}); status != http.StatusOK || outcome != "miss" {
		t.Fatalf("batch: status %d, outcome %q: %s", status, outcome, body)
	}
	if status, body, outcome := postBatch(t, ts, "localcluster:batch", api.LocalClusterBatchRequest{Method: "heat", Seeds: []int{3, 40}}); status != http.StatusOK || outcome != "miss" {
		t.Fatalf("localcluster batch: status %d, outcome %q: %s", status, outcome, body)
	}
	if n := srv.cache.Len(); n != 4 {
		t.Fatalf("cache holds %d entries after batches over 2+2 distinct seeds, want 4", n)
	}
	for _, c := range []struct {
		path string
		req  any
	}{
		{"ppr", api.PPRRequest{Seeds: []int{3}, Alpha: 0.12, Sweep: true}},
		{"ppr", api.PPRRequest{Seeds: []int{17}, Alpha: 0.12, Sweep: true}},
		{"localcluster", api.LocalClusterRequest{Method: "heat", Seeds: []int{40}}},
	} {
		status, body, outcome := postBatch(t, ts, c.path, c.req)
		_, want, _ := postBatch(t, cold, c.path, c.req)
		if status != http.StatusOK || outcome != "hit" || body != want {
			t.Fatalf("%s %+v after the batch: status %d, outcome %q\n%s\nwant a hit with\n%s", c.path, c.req, status, outcome, body, want)
		}
	}
}

// TestWarmSlotsServeABatch: single-seed replies already cached or in
// flight answer a batch's seeds. The batch is a hit when every seed hit,
// a miss when it computed one, shared when it computed none but waited
// on another request's flight — and its bytes are a cold daemon's.
func TestWarmSlotsServeABatch(t *testing.T) {
	srv, ts, _ := testServer(t, Config{})
	_, cold, _ := testServer(t, Config{})
	for _, seed := range []int{5, 9} {
		postBatch(t, ts, "ppr", api.PPRRequest{Seeds: []int{seed}})
	}
	for _, c := range []struct {
		seeds   []int
		outcome string
	}{
		{[]int{5, 9, 5}, "hit"},
		{[]int{9, 11, 5}, "miss"},
		{[]int{11, 5}, "hit"},
	} {
		req := api.PPRBatchRequest{Seeds: c.seeds}
		status, body, outcome := postBatch(t, ts, "ppr:batch", req)
		_, want, _ := postBatch(t, cold, "ppr:batch", req)
		if status != http.StatusOK || outcome != c.outcome || body != want {
			t.Fatalf("batch %v: status %d, outcome %q\n%s\nwant %q with\n%s", c.seeds, status, outcome, body, c.outcome, want)
		}
	}

	// Seed 7's single-seed flight is held running; a batch of 7
	// arriving meanwhile joins it instead of computing.
	started, release := make(chan struct{}), make(chan struct{})
	single := make(chan string, 1)
	seven := pprQuery(7, nil)
	seven.compute = func(ctx context.Context, g gstore.Graph, _ []int, debugWork bool) ([]byte, api.WorkStats, error) {
		close(started)
		<-release
		req := api.PPRRequest{Seeds: []int{7}}
		req.Normalize()
		return execPPR(ctx, g, req, debugWork)
	}
	go func() {
		a, err := srv.resolve(ringRequest(context.Background(), ""), "ring", seven)
		if err != nil {
			t.Error(err)
		}
		single <- a.outcome
	}()
	<-started
	req := api.PPRBatchRequest{Seeds: []int{7}}
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	wc := newWaitCtx()
	r := httptest.NewRequest("POST", "/v1/graphs/ring/ppr:batch", bytes.NewReader(payload)).WithContext(wc)
	r.Header.Set("Content-Type", "application/json")
	r.SetPathValue("name", "ring")
	w := httptest.NewRecorder()
	batched := make(chan struct{})
	go func() {
		srv.handlePPRBatch(w, r)
		close(batched)
	}()
	<-wc.waiting // the batch holds the flight and waits on it
	close(release)
	<-batched
	_, want, _ := postBatch(t, cold, "ppr:batch", req)
	if outcome := w.Header().Get("X-Graphd-Cache"); w.Code != http.StatusOK || outcome != "shared" || w.Body.String() != want {
		t.Fatalf("batch joining a running flight: status %d, outcome %q\n%s\nwant shared with\n%s", w.Code, outcome, w.Body, want)
	}
	if got := <-single; got != "miss" {
		t.Fatalf("the single-seed request that opened the flight: outcome %q, want miss", got)
	}
}

// TestBatchRepliesMatchTheirGoldens pins batch replies whose bytes were
// made without the per-seed cache: the ?debug=work aggregates and the
// error bodies (the lowest-index out-of-range seed fails the batch with
// the kernel's words; an unsweepable seed with its own, named). Every
// golden is what graphd answered when a batch was one cache entry
// computed whole, except the two push goldens, re-recorded when the
// push began settling a node the lazy step would re-queue (every other
// golden kept its bytes). A debug batch reads and fills the plain
// slots, so its repeat is a hit with the same bytes, and so is a plain
// single seed.
func TestBatchRepliesMatchTheirGoldens(t *testing.T) {
	_, ts, _ := testServer(t, Config{})
	for _, c := range []struct {
		path   string
		req    any
		status int
		want   string
	}{
		{"ppr:batch?debug=work", api.PPRBatchRequest{Seeds: []int{0, 9, 9, 40}, TopK: 2, Alpha: 0.2, Eps: 1e-3, Sweep: true}, http.StatusOK,
			`{"results":[{"seed":0,"support":10,"sum":0.8588599196504698,"pushes":37,"work_volume":277,"top":[{"node":0,"mass":0.3764003173275025},{"node":2,"mass":0.06192293975517934}],"sweep":{"set":[0,2,5,1,7,4,3,6],"size":8,"conductance":0.034482758620689655,"prefix":8}},` +
				`{"seed":9,"support":10,"sum":0.9357454015739449,"pushes":40,"work_volume":298,"top":[{"node":9,"mass":0.3814564788185886},{"node":8,"mass":0.07925669667180306}],"sweep":{"set":[9,12,15,11,14,10,13,8],"size":8,"conductance":0.034482758620689655,"prefix":8}},` +
				`{"seed":9,"support":10,"sum":0.9357454015739449,"pushes":40,"work_volume":298,"top":[{"node":9,"mass":0.3814564788185886},{"node":8,"mass":0.07925669667180306}],"sweep":{"set":[9,12,15,11,14,10,13,8],"size":8,"conductance":0.034482758620689655,"prefix":8}},` +
				`{"seed":40,"support":10,"sum":0.8588599196504699,"pushes":37,"work_volume":277,"top":[{"node":40,"mass":0.3764003173275025},{"node":42,"mass":0.06192293975517934}],"sweep":{"set":[40,42,45,41,47,44,43,46],"size":8,"conductance":0.034482758620689655,"prefix":8}}],` +
				`"total_work":1150,"work":{"method":"push-batch","pushes":154,"work_volume":1150,"max_support":10}}`},
		{"localcluster:batch?debug=work", api.LocalClusterBatchRequest{Method: "nibble", Seeds: []int{3, 21}}, http.StatusOK,
			`{"method":"nibble","results":[{"seed":3,"set":[3,5,6,7,1,2,4,0,8,56,9,10,11,12,13,14,15,57,58,59,60,61,62,63],"size":24,"conductance":0.011494252873563218,"volume":174,"support":26},` +
				`{"seed":21,"set":[21,23,17,18,19,20,22,16,8,24,9,10,11,12,13,14,15,25,26,27,28,29,30,31],"size":24,"conductance":0.011494252873563218,"volume":174,"support":26}],"work":{"method":"nibble-batch","steps":20,"max_support":26}}`},
		{"localcluster:batch?debug=work", api.LocalClusterBatchRequest{Method: "heat", Seeds: []int{3, 21}}, http.StatusOK,
			`{"method":"heat","results":[{"seed":3,"set":[3,1,2,4,5,6,7,0,8,56,9,57,10,11,12,13,14,15,58,59,60,61,62,63],"size":24,"conductance":0.011494252873563218,"volume":174,"support":26},` +
				`{"seed":21,"set":[21,17,18,19,20,22,23,16,8,24,13,14,15,9,10,11,12,25,26,27,28,29,30,31],"size":24,"conductance":0.011494252873563218,"volume":174,"support":26}],"work":{"method":"heat-batch","terms":17,"max_support":26}}`},
		{"localcluster:batch?debug=work", api.LocalClusterBatchRequest{Method: "ppr", Seeds: []int{3, 21}}, http.StatusOK,
			`{"method":"ppr","results":[{"seed":3,"set":[3,7,6,2,1,5,4,0,8,56,15,63,12,60,11,59,10,58,14,62,13,61,9,57],"size":24,"conductance":0.011494252873563218,"volume":174,"support":26},` +
				`{"seed":21,"set":[21,23,22,18,17,20,19,16,8,24,15,31,12,28,11,27,10,26,14,30,13,29,9,25],"size":24,"conductance":0.011494252873563218,"volume":174,"support":26}],"work":{"method":"ppr-batch","pushes":374,"work_volume":2746,"max_support":26}}`},
		{"ppr:batch", api.PPRBatchRequest{Seeds: []int{0, 1 << 20, 3, 70}}, http.StatusBadRequest,
			`{"error":{"code":"invalid_argument","message":"kernel: seed 1048576 out of range [0,64)"}}`},
		{"ppr:batch", api.PPRBatchRequest{Seeds: []int{0, 3, 9, 12}, Eps: 1, Sweep: true}, http.StatusBadRequest,
			`{"error":{"code":"invalid_argument","message":"seed 0: ppr produced no sweepable support (eps too large?): local: sweep over empty vector"}}`},
		{"localcluster:batch", api.LocalClusterBatchRequest{Method: "ppr", Seeds: []int{0, 64, 1 << 20}}, http.StatusBadRequest,
			`{"error":{"code":"invalid_argument","message":"kernel: seed 64 out of range [0,64)"}}`},
		{"localcluster:batch", api.LocalClusterBatchRequest{Method: "nibble", Seeds: []int{0, 64, 1 << 20}}, http.StatusBadRequest,
			`{"error":{"code":"invalid_argument","message":"local: kernel: seed 64 out of range [0,64)"}}`},
		{"localcluster:batch", api.LocalClusterBatchRequest{Method: "ppr", Seeds: []int{5, 6}, Eps: 1}, http.StatusBadRequest,
			`{"error":{"code":"invalid_argument","message":"seed 5: ppr produced no sweepable support (eps too large?)"}}`},
		{"localcluster:batch", api.LocalClusterBatchRequest{Method: "nibble", Seeds: []int{5, 6}, Eps: 1}, http.StatusBadRequest,
			`{"error":{"code":"invalid_argument","message":"seed 5: nibble found no cut (eps too large or too few steps)"}}`},
	} {
		for _, wantOutcome := range []string{"miss", "hit"} {
			status, body, outcome := postBatch(t, ts, c.path, c.req)
			if c.status != http.StatusOK {
				wantOutcome = ""
			}
			if status != c.status || outcome != wantOutcome || body != c.want+"\n" {
				t.Fatalf("%s %+v: status %d, outcome %q\n%s\nwant %d, %q\n%s", c.path, c.req, status, outcome, body, c.status, wantOutcome, c.want)
			}
		}
	}
	status, _, outcome := postBatch(t, ts, "ppr", api.PPRRequest{Seeds: []int{40}, TopK: 2, Alpha: 0.2, Eps: 1e-3, Sweep: true})
	if status != http.StatusOK || outcome != "hit" {
		t.Fatalf("single seed of a debug batch: status %d, outcome %q; want a hit", status, outcome)
	}
}

// TestBatchDeadlineMidRun: a ppr:batch and a nibble localcluster:batch
// whose compute budget (Config.QueryTimeout, no override) runs out part
// way through. The reply is a typed deadline_exceeded, nothing is left
// in the in-flight table, and every seed that reached the cache holds
// the bytes its plain twin {"seeds":[s]} gets from a daemon with the
// default budget. The first seeds sit in a small clique and finish at
// once, the rest in a forest-fire graph whose walks outlast the budget;
// the test holds however many of them finish.
func TestBatchDeadlineMidRun(t *testing.T) {
	srv, ts, _ := testServer(t, Config{QueryTimeout: 50 * time.Millisecond})
	full, fullTS, _ := testServer(t, Config{})
	ff, err := gen.ForestFire(gen.ForestFireConfig{N: 5000, FwdProb: 0.37, Ambs: 1}, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	const clique = 8
	b := graph.NewBuilder(ff.N() + clique)
	ff.Edges(func(u, v int, w float64) { b.AddWeightedEdge(u, v, w) })
	var seeds []int
	for u := ff.N(); u < ff.N()+clique; u++ {
		seeds = append(seeds, u)
		for v := u + 1; v < ff.N()+clique; v++ {
			b.AddEdge(u, v)
		}
	}
	for u := 0; u < 24; u++ {
		seeds = append(seeds, 200*u)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Server{srv, full} {
		if _, err := s.Store().Put("mixed", g); err != nil {
			t.Fatal(err)
		}
	}
	_, id, err := srv.store.Get("mixed")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		path, twinPath string
		req            any
		// twin is seed s's plain request, normalized, and its params.
		twin func(s int) (any, []byte)
	}{
		{"ppr:batch", "ppr", api.PPRBatchRequest{Seeds: seeds, Alpha: 0.01, Eps: 1e-10, TopK: 10, Sweep: true},
			func(s int) (any, []byte) {
				req := api.PPRRequest{Seeds: []int{s}, Alpha: 0.01, Eps: 1e-10, TopK: 10, Sweep: true}
				req.Normalize()
				return req, pprParams(&req)
			}},
		{"localcluster:batch", "localcluster", api.LocalClusterBatchRequest{Method: "nibble", Seeds: seeds, Eps: 1e-10, Steps: 400},
			func(s int) (any, []byte) {
				req := api.LocalClusterRequest{Method: "nibble", Seeds: []int{s}, Eps: 1e-10, Steps: 400}
				req.Normalize()
				return req, mustParams(req)
			}},
	} {
		status, body, _ := postWire(t, ts.URL+"/v1/graphs/mixed/"+c.path, c.req)
		var env api.ErrorEnvelope
		if err := json.Unmarshal(body, &env); err != nil || env.Error == nil ||
			status != http.StatusGatewayTimeout || env.Error.Code != api.CodeDeadlineExceeded {
			t.Fatalf("%s: status %d, body %.300s; want a 504 deadline_exceeded envelope", c.path, status, body)
		}
		srv.inflight.running.Wait() // the detached batch settles
		srv.inflight.mu.Lock()
		left := len(srv.inflight.flights)
		srv.inflight.mu.Unlock()
		if left != 0 {
			t.Fatalf("%s: %d flights left in the table after the batch settled", c.path, left)
		}
		cached := 0
		for _, s := range seeds {
			req, params := c.twin(s)
			got, _, ok := srv.cache.Get("q|" + c.twinPath + "|g" + strconv.FormatUint(id, 10) + "|" + string(params))
			if !ok {
				continue
			}
			cached++
			status, want, _ := postWire(t, fullTS.URL+"/v1/graphs/mixed/"+c.twinPath, req)
			if status != http.StatusOK || string(got)+"\n" != string(want) {
				t.Fatalf("%s seed %d: cached\n%.300s\nbut its twin answers %d with\n%.300s", c.path, s, got, status, want)
			}
		}
		t.Logf("%s: %d of %d seeds reached the cache before the deadline", c.path, cached, len(seeds))
	}
}

// TestRepeatedSeedRunsOnce: a seed repeated in one batch request is one
// flight, opened by its first slot and joined by the second, so [3,3]
// runs one computation and both slots reply with its bytes.
func TestRepeatedSeedRunsOnce(t *testing.T) {
	srv, _, _ := testServer(t, Config{})
	req := api.PPRBatchRequest{Seeds: []int{3, 3}}
	req.Normalize()
	q := pprBatchQuery(&req)
	var runs atomic.Int32
	compute := q.compute
	q.compute = func(ctx context.Context, g gstore.Graph, seeds []int, debugWork bool) ([]byte, api.WorkStats, error) {
		runs.Add(1)
		return compute(ctx, g, seeds, debugWork)
	}
	w := ask(context.Background(), srv, "", q)
	if w.Code != http.StatusOK || w.Header().Get("X-Graphd-Cache") != "miss" {
		t.Fatalf("status %d, outcome %q: %s", w.Code, w.Header().Get("X-Graphd-Cache"), w.Body)
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("seeds [3,3] ran %d computations, want 1", n)
	}
	var reply struct{ Results []json.RawMessage }
	if err := json.Unmarshal(w.Body.Bytes(), &reply); err != nil {
		t.Fatal(err)
	}
	if len(reply.Results) != 2 || !bytes.Equal(reply.Results[0], reply.Results[1]) {
		t.Fatalf("the two slots of seed 3 differ: %s", w.Body)
	}
}
