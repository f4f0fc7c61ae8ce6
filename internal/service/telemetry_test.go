package service

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/gstore"
	"repro/internal/kernel"
	"repro/internal/promtext"
	"repro/pkg/api"
	"repro/pkg/client"
)

// TestDebugWorkMirrorsKernelStats is the tentpole contract: the work
// block a ?debug=work PPR response carries must equal, field for field,
// the kernel.Stats a direct in-process diffusion with the same
// parameters produces on the same graph.
func TestDebugWorkMirrorsKernelStats(t *testing.T) {
	_, _, c := testServer(t, Config{})
	req := api.PPRRequest{Seeds: []int{0}, Alpha: 0.15, Eps: 1e-4}

	res, err := c.Graphs.PPR(ctx(), "ring", req, client.WithWorkStats())
	if err != nil {
		t.Fatal(err)
	}
	if res.Work == nil {
		t.Fatal("?debug=work response carries no work block")
	}

	g := gen.RingOfCliques(8, 8)
	ws := kernel.NewPool(g.N()).Get()
	st, err := kernel.PushACL{Alpha: req.Alpha, Eps: req.Eps}.Diffuse(gstore.Wrap(g), ws, req.Seeds)
	if err != nil {
		t.Fatal(err)
	}
	want := api.WorkStats{
		Method:     "push",
		Pushes:     st.Pushes,
		WorkVolume: st.WorkVolume,
		Steps:      st.Steps,
		Terms:      st.Terms,
		MaxSupport: st.MaxSupport,
	}
	if *res.Work != want {
		t.Fatalf("work block = %+v, want kernel stats %+v", *res.Work, want)
	}
	if res.Work.Pushes <= 0 || res.Work.WorkVolume <= 0 || res.Work.MaxSupport <= 0 {
		t.Fatalf("degenerate work stats: %+v", *res.Work)
	}

	// Without the option the block must be absent — the plain response
	// shape is unchanged by the telemetry work.
	plain, err := c.Graphs.PPR(ctx(), "ring", req)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Work != nil {
		t.Fatalf("plain response carries a work block: %+v", *plain.Work)
	}

	// A repeated debug query is a cache hit and must replay the same
	// stats, not recompute or drop them.
	hit, err := c.Graphs.PPR(ctx(), "ring", req, client.WithWorkStats())
	if err != nil {
		t.Fatal(err)
	}
	if hit.Work == nil || *hit.Work != want {
		t.Fatalf("cached work block = %+v, want %+v", hit.Work, want)
	}
}

// TestRequestIDs covers the three inbound cases: absent (mint one),
// valid (honor it), hostile (replace it). The ID always comes back on
// the response header.
func TestRequestIDs(t *testing.T) {
	_, ts, _ := testServer(t, Config{})

	get := func(t *testing.T, inbound string) string {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
		if err != nil {
			t.Fatal(err)
		}
		if inbound != "" {
			req.Header.Set("X-Request-Id", inbound)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.Header.Get("X-Request-Id")
	}

	if id := get(t, ""); id == "" {
		t.Fatal("no request ID minted for a bare request")
	}
	if id := get(t, "trace-me-42"); id != "trace-me-42" {
		t.Fatalf("sane inbound ID not honored: got %q", id)
	}
	oversized := strings.Repeat("x", 65)
	if id := get(t, oversized); id == oversized || id == "" {
		t.Fatalf("oversized inbound ID not replaced: got %q", id)
	}
	if id := get(t, "has space"); id == "has space" || id == "" {
		t.Fatalf("non-printable inbound ID not replaced: got %q", id)
	}

	// Two bare requests get distinct IDs.
	if a, b := get(t, ""), get(t, ""); a == b {
		t.Fatalf("request IDs repeat: %q", a)
	}
}

// TestDebugQueriesRing exercises the trace ring end to end: queries land
// newest-first with route, graph, cache outcome, duration, request ID
// and (when computed) the work stats.
func TestDebugQueriesRing(t *testing.T) {
	_, _, c := testServer(t, Config{})
	req := api.PPRRequest{Seeds: []int{0}}

	if _, err := c.Graphs.PPR(ctx(), "ring", req, client.WithWorkStats()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Graphs.PPR(ctx(), "ring", req, client.WithWorkStats()); err != nil {
		t.Fatal(err)
	}

	queries, err := c.DebugQueries(ctx())
	if err != nil {
		t.Fatal(err)
	}
	if len(queries) != 2 {
		t.Fatalf("trace holds %d queries, want 2: %+v", len(queries), queries)
	}
	newest, oldest := queries[0], queries[1]
	if newest.Cache != "hit" || oldest.Cache != "miss" {
		t.Fatalf("cache outcomes newest-first = %q, %q; want hit, miss", newest.Cache, oldest.Cache)
	}
	for i, q := range queries {
		if q.Route != "POST /v1/graphs/{name}/ppr" {
			t.Errorf("query %d route = %q", i, q.Route)
		}
		if q.Graph != "ring" || q.Status != http.StatusOK {
			t.Errorf("query %d = %+v", i, q)
		}
		if q.ID == "" {
			t.Errorf("query %d has no request ID", i)
		}
		if q.Work == nil || q.Work.Method != "push" {
			t.Errorf("query %d work = %+v", i, q.Work)
		}
		if !strings.Contains(q.Params, "\"seeds\"") {
			t.Errorf("query %d params digest = %q", i, q.Params)
		}
		if q.Time.IsZero() {
			t.Errorf("query %d has no timestamp", i)
		}
	}
	// Cache hits replay the stored stats.
	if *newest.Work != *oldest.Work {
		t.Fatalf("hit replays different work: %+v vs %+v", *newest.Work, *oldest.Work)
	}
}

// TestTraceRingCapacity pins the ring semantics: capacity bounds the
// snapshot, newest entries win, and a negative TraceBuffer disables the
// ring without breaking the endpoint.
func TestTraceRingCapacity(t *testing.T) {
	_, _, c := testServer(t, Config{TraceBuffer: 3})
	for k := 1; k <= 5; k++ {
		if _, err := c.Graphs.PPR(ctx(), "ring", api.PPRRequest{Seeds: []int{0}, TopK: k}); err != nil {
			t.Fatal(err)
		}
	}
	queries, err := c.DebugQueries(ctx())
	if err != nil {
		t.Fatal(err)
	}
	if len(queries) != 3 {
		t.Fatalf("ring holds %d, want 3", len(queries))
	}
	for i, wantK := range []string{`"topk":5`, `"topk":4`, `"topk":3`} {
		if !strings.Contains(queries[i].Params, wantK) {
			t.Errorf("entry %d params = %q, want newest-first containing %s", i, queries[i].Params, wantK)
		}
	}

	_, _, off := testServer(t, Config{TraceBuffer: -1})
	if _, err := off.Graphs.PPR(ctx(), "ring", api.PPRRequest{Seeds: []int{0}}); err != nil {
		t.Fatal(err)
	}
	queries, err = off.DebugQueries(ctx())
	if err != nil {
		t.Fatal(err)
	}
	if len(queries) != 0 {
		t.Fatalf("disabled trace returned %d queries", len(queries))
	}
}

// TestMetricsRouteLabelsAndWorkHistograms locks two regressions: route
// labels carry the real mux pattern (the seed labeled every request
// "unmatched" because the pattern landed on the deadline middleware's
// request copy), and the three work histograms appear labeled by method
// and cache outcome.
func TestMetricsRouteLabelsAndWorkHistograms(t *testing.T) {
	_, _, c := testServer(t, Config{})
	req := api.PPRRequest{Seeds: []int{0}}
	if _, err := c.Graphs.PPR(ctx(), "ring", req); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Graphs.PPR(ctx(), "ring", req); err != nil {
		t.Fatal(err)
	}

	text, err := c.Metrics(ctx())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`graphd_requests_total{route="POST /v1/graphs/{name}/ppr",code="200"} 2`,
		`graphd_request_seconds_bucket{route="POST /v1/graphs/{name}/ppr",le="+Inf"} 2`,
		`graphd_query_pushes_bucket{method="push",cache="miss",backend="compact",le="+Inf"} 1`,
		`graphd_query_pushes_bucket{method="push",cache="hit",backend="compact",le="+Inf"} 1`,
		`graphd_query_work_volume_count{method="push",cache="miss",backend="compact"} 1`,
		`graphd_query_support_count{method="push",cache="miss",backend="compact"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %s", want)
		}
	}
	if strings.Contains(text, `route="unmatched"`) {
		t.Error("matched requests labeled unmatched — pattern propagation regressed")
	}
}

// TestMetricsExpositionIsStrictlyValid scrapes a server that has seen
// varied traffic (queries, cache hits, errors, a job) and runs the
// exposition through the strict promtext linter.
func TestMetricsExpositionIsStrictlyValid(t *testing.T) {
	_, ts, c := testServer(t, Config{JobWorkers: 1})
	if _, err := c.Graphs.PPR(ctx(), "ring", api.PPRRequest{Seeds: []int{0}}, client.WithWorkStats()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Graphs.PPR(ctx(), "ring", api.PPRRequest{Seeds: []int{0}}, client.WithWorkStats()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Graphs.LocalCluster(ctx(), "ring", api.LocalClusterRequest{Seeds: []int{0}, Method: "nibble"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Graphs.Diffuse(ctx(), "ring", api.DiffuseRequest{Seeds: []int{0}, Kind: "heat"}); err != nil {
		t.Fatal(err)
	}
	// An error path and an unmatched route must also render cleanly.
	if _, err := c.Graphs.Stats(ctx(), "ghost"); err == nil {
		t.Fatal("stats on missing graph should fail")
	}
	if resp, err := http.Get(ts.URL + "/no/such/route"); err == nil {
		resp.Body.Close()
	}
	jreq, err := api.NewJob("partition", "ring", &api.PartitionJobParams{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.Jobs.Submit(ctx(), jreq)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Jobs.Wait(ctx(), v.ID); err != nil {
		t.Fatal(err)
	}

	if _, err := c.Graphs.PPRBatch(ctx(), "ring", api.PPRBatchRequest{Seeds: []int{1, 2}}); err != nil {
		t.Fatal(err)
	}

	text, err := c.Metrics(ctx())
	if err != nil {
		t.Fatal(err)
	}
	if errs := promtext.Lint(strings.NewReader(text)); len(errs) != 0 {
		for _, e := range errs {
			t.Errorf("promtext: %v", e)
		}
	}
	// The cache gauges: the debug ppr, localcluster and diffuse bodies,
	// the job result and the batch's two seeds.
	if !strings.Contains(text, "\ngraphd_cache_entries 6\n") {
		t.Errorf("metrics do not report the 6 cache entries:\n%s", text)
	}
	var held int
	if _, err := fmt.Sscanf(text[strings.Index(text, "\ngraphd_cache_bytes ")+1:], "graphd_cache_bytes %d\n", &held); err != nil || held < 1000 {
		t.Errorf("graphd_cache_bytes = %d (%v), want the key and body bytes of 6 entries", held, err)
	}
}

// TestPprofOnlyOnDebugHandler pins the security posture: profiling and
// expvar are absent from the serving mux and present on the separate
// DebugHandler, which also mirrors /metrics and /debug/queries.
func TestPprofOnlyOnDebugHandler(t *testing.T) {
	srv, ts, _ := testServer(t, Config{})
	for _, path := range []string{"/debug/pprof/", "/debug/vars"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s on serving mux = %d, want 404", path, resp.StatusCode)
		}
	}

	dbg := httptest.NewServer(srv.DebugHandler())
	defer dbg.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/vars", "/debug/queries", "/metrics"} {
		resp, err := http.Get(dbg.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s on debug handler = %d, want 200", path, resp.StatusCode)
		}
	}
}

// TestJobProgress verifies the progress plumbing: a running NCP job
// reports a monotone fraction in [0,1] through JobView, and every
// terminal successful job lands exactly on 1.
func TestJobProgress(t *testing.T) {
	_, _, c := testServer(t, Config{JobWorkers: 1})
	jreq, err := api.NewJob("ncp", "ring", &api.NCPJobParams{Method: "both", Seeds: 4, Workers: 2, BaseSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.Jobs.Submit(ctx(), jreq)
	if err != nil {
		t.Fatal(err)
	}
	last := -1.0
	v, err = c.Jobs.WaitFunc(ctx(), v.ID, func(view api.JobView) {
		if view.Progress < 0 || view.Progress > 1 {
			t.Errorf("progress %v outside [0,1]", view.Progress)
		}
		if view.Progress < last {
			t.Errorf("progress went backwards: %v after %v", view.Progress, last)
		}
		last = view.Progress
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != api.JobDone {
		t.Fatalf("job finished %s: %s", v.Status, v.Error)
	}
	if v.Progress != 1 {
		t.Fatalf("terminal progress = %v, want 1", v.Progress)
	}

	// Partition jobs report through the multilevel hook and must land on
	// 1 as well.
	preq, err := api.NewJob("partition", "ring", &api.PartitionJobParams{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	pv, err := c.Jobs.Submit(ctx(), preq)
	if err != nil {
		t.Fatal(err)
	}
	if pv, err = c.Jobs.Wait(ctx(), pv.ID); err != nil {
		t.Fatal(err)
	}
	if pv.Status != api.JobDone || pv.Progress != 1 {
		t.Fatalf("partition job: status=%s progress=%v", pv.Status, pv.Progress)
	}
}

// TestDisableTelemetry pins the opt-out: no request IDs, no trace ring
// entries, but the request counters still run.
func TestDisableTelemetry(t *testing.T) {
	_, ts, c := testServer(t, Config{DisableTelemetry: true})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if id := resp.Header.Get("X-Request-Id"); id != "" {
		t.Fatalf("telemetry disabled but request ID %q assigned", id)
	}
	if _, err := c.Graphs.PPR(ctx(), "ring", api.PPRRequest{Seeds: []int{0}}); err != nil {
		t.Fatal(err)
	}
	queries, err := c.DebugQueries(ctx())
	if err != nil {
		t.Fatal(err)
	}
	if len(queries) != 0 {
		t.Fatalf("telemetry disabled but trace recorded %d queries", len(queries))
	}
	text, err := c.Metrics(ctx())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, `graphd_requests_total{route="POST /v1/graphs/{name}/ppr",code="200"} 1`) {
		t.Error("request counters should keep running with telemetry disabled")
	}
}
