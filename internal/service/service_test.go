package service

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/diffusion"
	"repro/internal/gen"
	"repro/internal/gstore"
	"repro/pkg/api"
	"repro/pkg/client"
)

// testServer wires a Server to an httptest listener with fast defaults,
// a pre-registered "ring" graph (8 cliques of 8: crisp clusters), and a
// pkg/client SDK client pointed at it — every endpoint test talks
// through the public contract, exactly like an external consumer.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *client.Client) {
	t.Helper()
	if cfg.OpLog == nil {
		cfg.OpLog = log.New(io.Discard, "", 0)
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	if _, err := srv.Store().Put("ring", gen.RingOfCliques(8, 8)); err != nil {
		// A persistent store rebooted on a reused data dir has already
		// recovered "ring"; that satisfies the fixture.
		if !api.IsConflict(err) {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c, err := client.New(ts.URL,
		client.WithRetries(0),
		client.WithPollInterval(2*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	return srv, ts, c
}

// wantAPIErr asserts that err is an *api.Error with the given
// machine-readable code — the contract tests branch on codes, never on
// message strings.
func wantAPIErr(t *testing.T, err error, code api.ErrorCode) *api.Error {
	t.Helper()
	if err == nil {
		t.Fatalf("want API error with code %q, got nil", code)
	}
	var ae *api.Error
	if !errors.As(err, &ae) {
		t.Fatalf("want *api.Error with code %q, got %T: %v", code, err, err)
	}
	if ae.Code != code {
		t.Fatalf("error code = %q, want %q (err: %v)", ae.Code, code, err)
	}
	return ae
}

// postWire sends a typed request over raw HTTP (marshaled from the api
// type, never hand-written JSON) for the few tests that must inspect
// status codes and response headers directly.
func postWire(t *testing.T, url string, req any) (int, []byte, http.Header) {
	t.Helper()
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header
}

func ctx() context.Context { return context.Background() }

func TestHealthz(t *testing.T) {
	_, _, c := testServer(t, Config{})
	h, err := c.Health(ctx())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.APIVersion != api.Version {
		t.Fatalf("healthz: %+v", h)
	}
	if h.Version == "" || h.GoVersion == "" {
		t.Fatalf("healthz should report build info: %+v", h)
	}
	if h.UptimeSeconds < 0 {
		t.Fatalf("uptime %v < 0", h.UptimeSeconds)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, _, c := testServer(t, Config{})
	if _, err := c.Graphs.PPR(ctx(), "ring", api.PPRRequest{Seeds: []int{0}}); err != nil {
		t.Fatal(err)
	}
	text, err := c.Metrics(ctx())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"graphd_requests_total", "graphd_request_seconds_bucket",
		"graphd_cache_misses_total", "graphd_jobs_queued", "graphd_uptime_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %s", want)
		}
	}
}

func TestGraphLifecycle(t *testing.T) {
	_, _, c := testServer(t, Config{})

	// Load from an edge-list body.
	info, err := c.Graphs.Load(ctx(), "tri", strings.NewReader("0 1\n1 2\n0 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if !info.Sealed || info.Nodes != 3 || info.Edges != 3 {
		t.Fatalf("load: %+v", info)
	}

	// Duplicate name conflicts.
	_, err = c.Graphs.Load(ctx(), "tri", strings.NewReader("0 1\n"))
	wantAPIErr(t, err, api.CodeConflict)

	// Malformed edge list is invalid_argument naming the line.
	_, err = c.Graphs.Load(ctx(), "bad", strings.NewReader("0 1\nx y\n"))
	ae := wantAPIErr(t, err, api.CodeInvalidArgument)
	if !strings.Contains(ae.Message, "line 2") {
		t.Errorf("error should name line 2: %v", ae)
	}

	// Invalid graph name.
	_, err = c.Graphs.Load(ctx(), "sp ace", strings.NewReader("0 1\n"))
	wantAPIErr(t, err, api.CodeInvalidArgument)

	// Listing includes both graphs.
	graphs, err := c.Graphs.List(ctx())
	if err != nil {
		t.Fatal(err)
	}
	if len(graphs) != 2 {
		t.Fatalf("got %d graphs, want 2: %+v", len(graphs), graphs)
	}

	// Stats.
	stats, err := c.Graphs.Stats(ctx(), "tri")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Nodes != 3 || stats.Edges != 3 || stats.MinDegree != 2 {
		t.Fatalf("stats = %+v", stats)
	}

	// Delete, then not_found.
	if err := c.Graphs.Delete(ctx(), "tri"); err != nil {
		t.Fatal(err)
	}
	wantAPIErr(t, c.Graphs.Delete(ctx(), "tri"), api.CodeNotFound)
	_, err = c.Graphs.Stats(ctx(), "tri")
	wantAPIErr(t, err, api.CodeNotFound)
}

func TestLoadGzip(t *testing.T) {
	_, ts, _ := testServer(t, Config{})

	// A client configured for gzip uploads compresses the edge list on
	// the wire; the server sniffs the magic bytes and inflates.
	zc, err := client.New(ts.URL, client.WithRetries(0), client.WithGzipUpload())
	if err != nil {
		t.Fatal(err)
	}
	info, err := zc.Graphs.Load(ctx(), "zipped", strings.NewReader("# nodes 4\n0 1\n1 2\n2 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if info.Nodes != 4 || info.Edges != 3 {
		t.Fatalf("gzip load: %+v", info)
	}

	// LoadFile ships a pre-compressed .gz file as-is.
	path := filepath.Join(t.TempDir(), "edges.txt.gz")
	var buf bytes.Buffer
	zw := newGzipBytes(&buf, "0 1\n1 2\n")
	if err := os.WriteFile(path, zw, 0o644); err != nil {
		t.Fatal(err)
	}
	info2, err := zc.Graphs.LoadFile(ctx(), "sniffed", path)
	if err != nil {
		t.Fatal(err)
	}
	if info2.Nodes != 3 || info2.Edges != 2 {
		t.Fatalf("gz file load: %+v", info2)
	}
}

func TestGenerateEndpoint(t *testing.T) {
	_, _, c := testServer(t, Config{})
	info, err := c.Graphs.Generate(ctx(), "kron", api.GenerateRequest{
		Family: "kronecker", Levels: 8, Edges: 2048, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Nodes != 256 || info.Edges == 0 {
		t.Fatalf("kronecker generate: %+v", info)
	}

	_, err = c.Graphs.Generate(ctx(), "x", api.GenerateRequest{Family: "nope"})
	wantAPIErr(t, err, api.CodeInvalidArgument)
	_, err = c.Graphs.Generate(ctx(), "x", api.GenerateRequest{Family: "grid"})
	wantAPIErr(t, err, api.CodeInvalidArgument)
	if _, err := c.Graphs.Generate(ctx(), "x", api.GenerateRequest{Family: "grid", Rows: 4, Cols: 5}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamBuildAndSeal(t *testing.T) {
	_, _, c := testServer(t, Config{})

	if _, err := c.Graphs.Stream(ctx(), "inc", 6); err != nil {
		t.Fatal(err)
	}

	// Streaming graphs are not queryable yet.
	_, err := c.Graphs.PPR(ctx(), "inc", api.PPRRequest{Seeds: []int{0}})
	wantAPIErr(t, err, api.CodeConflict)

	// Append two batches; a bad batch is rejected atomically.
	n, err := c.Graphs.AppendEdges(ctx(), "inc", []api.StreamEdge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0},
	})
	if err != nil || n != 3 {
		t.Fatalf("append: %d, %v", n, err)
	}
	_, err = c.Graphs.AppendEdges(ctx(), "inc", []api.StreamEdge{{U: 0, V: 99}})
	wantAPIErr(t, err, api.CodeInvalidArgument)
	if _, err := c.Graphs.AppendEdges(ctx(), "inc", []api.StreamEdge{
		{U: 3, V: 4}, {U: 4, V: 5}, {U: 5, V: 3}, {U: 2, V: 3, W: 0.1},
	}); err != nil {
		t.Fatal(err)
	}

	// Seal snapshots to CSR; the graph becomes queryable and frozen.
	info, err := c.Graphs.Seal(ctx(), "inc")
	if err != nil {
		t.Fatal(err)
	}
	if !info.Sealed || info.State != api.GraphSealed || info.Nodes != 6 || info.Edges != 7 {
		t.Fatalf("seal: %+v", info)
	}
	_, err = c.Graphs.Seal(ctx(), "inc")
	wantAPIErr(t, err, api.CodeConflict)
	_, err = c.Graphs.AppendEdges(ctx(), "inc", []api.StreamEdge{{U: 0, V: 3}})
	wantAPIErr(t, err, api.CodeConflict)

	if _, err := c.Graphs.PPR(ctx(), "inc", api.PPRRequest{Seeds: []int{0}, Sweep: true}); err != nil {
		t.Fatal(err)
	}

	// Stream endpoints on missing graphs are not_found.
	_, err = c.Graphs.AppendEdges(ctx(), "ghost", []api.StreamEdge{{U: 0, V: 1}})
	wantAPIErr(t, err, api.CodeNotFound)
	_, err = c.Graphs.Seal(ctx(), "ghost")
	wantAPIErr(t, err, api.CodeNotFound)
}

func TestPPRQueryCacheAndSingleflight(t *testing.T) {
	srv, ts, c := testServer(t, Config{})
	url := ts.URL + "/v1/graphs/ring/ppr"
	req := api.PPRRequest{Seeds: []int{0}, Alpha: 0.1, Eps: 1e-4, Sweep: true}

	// This test inspects the X-Graphd-Cache response header, so it posts
	// the marshaled api type over raw HTTP.
	code, first, hdr := postWire(t, url, req)
	if code != 200 {
		t.Fatalf("status %d: %s", code, first)
	}
	if got := hdr.Get("X-Graphd-Cache"); got != "miss" {
		t.Errorf("first query cache header = %q, want miss", got)
	}
	var res api.PPRResponse
	if err := json.Unmarshal(first, &res); err != nil {
		t.Fatal(err)
	}
	if res.Support == 0 || res.Pushes == 0 || res.Sweep == nil {
		t.Fatalf("ppr response: %s", first)
	}
	// The ring-of-cliques sweep should find (roughly) one clique.
	if res.Sweep.Conductance > 0.2 {
		t.Errorf("sweep conductance %g, want < 0.2 on ring of cliques", res.Sweep.Conductance)
	}

	code, second, hdr := postWire(t, url, req)
	if code != 200 {
		t.Fatalf("status %d: %s", code, second)
	}
	if got := hdr.Get("X-Graphd-Cache"); got != "hit" {
		t.Errorf("second query cache header = %q, want hit", got)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("cached response differs:\n%s\n%s", first, second)
	}
	hits, _, _ := srv.cache.Stats()
	if hits == 0 {
		t.Error("cache hit counter did not advance")
	}

	// The SDK path rides the same cache: its decoded response matches.
	sdkRes, err := c.Graphs.PPR(ctx(), "ring", req)
	if err != nil {
		t.Fatal(err)
	}
	if sdkRes.Support != res.Support || sdkRes.Pushes != res.Pushes {
		t.Fatalf("SDK response diverges from wire response: %+v vs %+v", sdkRes, res)
	}

	// Spelling out a knob's default value keys identically to omitting
	// it: the cache key is built from the post-Normalize request.
	withDefault := req
	withDefault.TopK = 100
	code, _, hdr = postWire(t, url, withDefault)
	if code != 200 {
		t.Fatal("defaulted-params query failed")
	}
	if got := hdr.Get("X-Graphd-Cache"); got != "hit" {
		t.Errorf("defaulted-params query cache header = %q, want hit", got)
	}

	// Raw wire clients (curl, non-Go SDKs) may serialize keys in any
	// order and whitespace; canonicalization must key them identically.
	// This payload is deliberately a reordered literal — the typed SDK
	// always marshals one field order, so it cannot express this case.
	resp, err := http.Post(url, "application/json",
		strings.NewReader(`{"sweep":true,  "alpha":0.1,"eps":1e-4,"seeds":[0]}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("reordered-key query: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Graphd-Cache"); got != "hit" {
		t.Errorf("reordered-key query cache header = %q, want hit", got)
	}
}

func TestJobQueueFullIsUnavailable(t *testing.T) {
	store, err := NewGraphStore("", "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Put("ring", gen.RingOfCliques(4, 4)); err != nil {
		t.Fatal(err)
	}
	m := NewJobManager(store, nil, nil, 1, 1)
	t.Cleanup(m.Close)
	release := make(chan struct{})
	var once sync.Once
	t.Cleanup(func() { once.Do(func() { close(release) }) })
	m.Register("block", func(ctx context.Context, _ gstore.Graph, _ json.RawMessage, _ ProgressFunc) (any, error) {
		<-release
		return "done", nil
	})

	// First job occupies the single worker...
	running, err := m.Submit("block", "ring", nil)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		v, err := m.Get(running.ID)
		if err != nil {
			t.Fatal(err)
		}
		if v.Status == api.JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	// ...the second fills the one queue slot; the third is backpressure,
	// surfaced as the retryable unavailable code, not conflict.
	if _, err := m.Submit("block", "ring", nil); err != nil {
		t.Fatal(err)
	}
	_, err = m.Submit("block", "ring", nil)
	wantAPIErr(t, err, api.CodeUnavailable)

	once.Do(func() { close(release) })

	// After shutdown, submissions are unavailable too.
	m.Close()
	_, err = m.Submit("block", "ring", nil)
	wantAPIErr(t, err, api.CodeUnavailable)
}

func TestQueryBadRequests(t *testing.T) {
	_, ts, c := testServer(t, Config{})

	// Typed requests through the SDK: every failure is a coded API error.
	for _, tc := range []struct {
		name string
		call func() error
		code api.ErrorCode
	}{
		{"unknown graph", func() error {
			_, err := c.Graphs.PPR(ctx(), "ghost", api.PPRRequest{Seeds: []int{0}})
			return err
		}, api.CodeNotFound},
		{"no seeds", func() error {
			_, err := c.Graphs.PPR(ctx(), "ring", api.PPRRequest{})
			return err
		}, api.CodeInvalidArgument},
		{"seed out of range", func() error {
			_, err := c.Graphs.PPR(ctx(), "ring", api.PPRRequest{Seeds: []int{9999}})
			return err
		}, api.CodeInvalidArgument},
		{"alpha out of range", func() error {
			_, err := c.Graphs.PPR(ctx(), "ring", api.PPRRequest{Seeds: []int{0}, Alpha: 2})
			return err
		}, api.CodeInvalidArgument},
		{"bad cluster method", func() error {
			_, err := c.Graphs.LocalCluster(ctx(), "ring", api.LocalClusterRequest{Seeds: []int{0}, Method: "magic"})
			return err
		}, api.CodeInvalidArgument},
		{"bad diffuse kind", func() error {
			_, err := c.Graphs.Diffuse(ctx(), "ring", api.DiffuseRequest{Seeds: []int{0}, Kind: "x"})
			return err
		}, api.CodeInvalidArgument},
		{"empty sweep", func() error {
			_, err := c.Graphs.SweepCut(ctx(), "ring", api.SweepCutRequest{})
			return err
		}, api.CodeInvalidArgument},
		{"sweep node range", func() error {
			_, err := c.Graphs.SweepCut(ctx(), "ring", api.SweepCutRequest{Values: []api.NodeMass{{Node: -3, Mass: 1}}})
			return err
		}, api.CodeInvalidArgument},
		{"sweep duplicate node", func() error {
			_, err := c.Graphs.SweepCut(ctx(), "ring", api.SweepCutRequest{Values: []api.NodeMass{{Node: 1, Mass: 0.5}, {Node: 1, Mass: 0.2}}})
			return err
		}, api.CodeInvalidArgument},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wantAPIErr(t, tc.call(), tc.code)
		})
	}

	// Deliberately malformed wire payloads (the SDK cannot produce these)
	// still come back as coded envelopes. A body is one JSON value: bytes
	// or a second value after it are refused, not ignored.
	for _, tc := range []struct {
		name, path, body string
		code             api.ErrorCode
	}{
		{"invalid json", "ppr", `{"seeds":`, api.CodeInvalidArgument},
		{"unknown field", "ppr", `{"seedz":[0]}`, api.CodeInvalidArgument},
		{"trailing bytes", "ppr", `{"seeds":[1]} junk`, api.CodeInvalidArgument},
		{"second value", "ppr", `{"seeds":[1]}{"seeds":[2]}`, api.CodeInvalidArgument},
		{"batch second value", "ppr:batch", `{"seeds":[1],"alpha":0.15,"eps":0.0001}{"seeds":[2]}`, api.CodeInvalidArgument},
		{"cluster trailing bytes", "localcluster", `{"seeds":[1]}]`, api.CodeInvalidArgument},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/graphs/ring/"+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var env api.ErrorEnvelope
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
				t.Fatalf("4xx body is not an error envelope: %v", err)
			}
			if env.Error == nil || env.Error.Code != tc.code {
				t.Fatalf("error = %+v, want code %q", env.Error, tc.code)
			}
			if resp.StatusCode != tc.code.HTTPStatus() {
				t.Fatalf("status %d does not match code %q", resp.StatusCode, tc.code)
			}
		})
	}

	// Unmatched routes stay plain 404s (no envelope to promise there).
	resp, err := http.Get(ts.URL + "/v1/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("unmatched route: %d", resp.StatusCode)
	}
}

func TestNonJSONContentTypeRejected(t *testing.T) {
	_, ts, _ := testServer(t, Config{})
	payload, _ := json.Marshal(api.PPRRequest{Seeds: []int{0}})
	resp, err := http.Post(ts.URL+"/v1/graphs/ring/ppr", "text/xml", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("status = %d, want 415", resp.StatusCode)
	}
	var env api.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error == nil || env.Error.Code != api.CodeUnsupportedMediaType {
		t.Fatalf("error = %+v, want code unsupported_media_type", env.Error)
	}

	// An absent Content-Type is accepted (bare POSTs from simple
	// clients), and +json media types pass.
	for _, ct := range []string{"", "application/vnd.graphd+json"} {
		req, _ := http.NewRequest("POST", ts.URL+"/v1/graphs/ring/ppr", bytes.NewReader(payload))
		if ct != "" {
			req.Header.Set("Content-Type", ct)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("content type %q: status %d, want 200", ct, resp.StatusCode)
		}
	}
}

func TestLocalClusterMethods(t *testing.T) {
	_, _, c := testServer(t, Config{})
	for _, method := range []string{"ppr", "nibble", "heat"} {
		t.Run(method, func(t *testing.T) {
			res, err := c.Graphs.LocalCluster(ctx(), "ring", api.LocalClusterRequest{
				Method: method, Seeds: []int{0}, Eps: 1e-4,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Size == 0 || res.Size == 64 {
				t.Fatalf("%s found trivial set: %+v", method, res)
			}
			if res.Conductance > 0.25 {
				t.Errorf("%s conductance %g, want < 0.25 on ring of cliques", method, res.Conductance)
			}
			if res.Support == 0 {
				t.Errorf("%s reported zero support", method)
			}
		})
	}
}

func TestDiffuseKindsAndSweepCut(t *testing.T) {
	_, _, c := testServer(t, Config{})
	for _, kind := range []string{"heat", "ppr", "lazy"} {
		t.Run(kind, func(t *testing.T) {
			res, err := c.Graphs.Diffuse(ctx(), "ring", api.DiffuseRequest{
				Kind: kind, Seeds: []int{0}, TopK: 10,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Top) == 0 || res.Sum < 0.99 || res.Sum > 1.01 {
				t.Fatalf("%s diffuse: sum=%g top=%d", kind, res.Sum, len(res.Top))
			}
		})
	}

	// Sweep the caller-provided indicator of clique 0: conductance must
	// match the known cut (just assert low).
	values := make([]api.NodeMass, 8)
	for i := range values {
		values[i] = api.NodeMass{Node: i, Mass: 1.0 - float64(i)/100}
	}
	sw, err := c.Graphs.SweepCut(ctx(), "ring", api.SweepCutRequest{Values: values})
	if err != nil {
		t.Fatal(err)
	}
	if sw.Size == 0 || sw.Conductance > 0.25 {
		t.Fatalf("sweepcut: %+v", sw)
	}
}

// TestHeatTimeBoundOverHTTP: a heat diffusion at api.MaxHeatT answers
// with all its mass, so neither library bound is below the wire's;
// past it, where e^t overflows float64 and the series' weights would
// decide the answer, every heat endpoint answers 400 invalid_argument
// naming the bound.
func TestHeatTimeBoundOverHTTP(t *testing.T) {
	_, ts, _ := testServer(t, Config{})
	url := ts.URL + "/v1/graphs/ring/"
	status, body, _ := postWire(t, url+"diffuse", api.DiffuseRequest{Kind: "heat", Seeds: []int{0}, T: api.MaxHeatT})
	var res api.DiffuseResponse
	if err := json.Unmarshal(body, &res); status != http.StatusOK || err != nil || math.Abs(res.Sum-1) > 1e-9 {
		t.Fatalf("diffuse t=%d: status %d, sum %v: %s", api.MaxHeatT, status, res.Sum, body)
	}
	status, body, _ = postWire(t, url+"localcluster", api.LocalClusterRequest{Method: "heat", Seeds: []int{0}, Eps: 1e-9, T: api.MaxHeatT})
	if status != http.StatusOK {
		t.Fatalf("localcluster t=%d: status %d: %s", api.MaxHeatT, status, body)
	}
	for _, tt := range []float64{710, 744, 5e5} {
		for path, req := range map[string]any{
			"diffuse":            api.DiffuseRequest{Kind: "heat", Seeds: []int{0}, T: tt},
			"localcluster":       api.LocalClusterRequest{Method: "heat", Seeds: []int{0}, Eps: 1e-9, T: tt},
			"localcluster:batch": api.LocalClusterBatchRequest{Method: "heat", Seeds: []int{0}, Eps: 1e-9, T: tt},
		} {
			status, body, _ := postWire(t, url+path, req)
			var env api.ErrorEnvelope
			if err := json.Unmarshal(body, &env); err != nil || env.Error == nil || status != http.StatusBadRequest ||
				env.Error.Code != api.CodeInvalidArgument || !strings.Contains(env.Error.Message, "exceeds 700") || strings.Contains(string(body), "NaN") {
				t.Errorf("%s t=%v: status %d: %s; want 400 invalid_argument naming the bound", path, tt, status, body)
			}
		}
	}
}

// TestDiffuseLazyWalksInChunks: a lazy walk longer than one chunk gives
// the bits of a single diffusion.LazyWalk call, and a done context
// stops a walk whose k has no cap.
func TestDiffuseLazyWalksInChunks(t *testing.T) {
	g := gen.RingOfCliques(8, 8)
	req := api.DiffuseRequest{Kind: "lazy", Seeds: []int{0, 9}, Alpha: 0.3, K: 2*lazyStepsPerCheck + 5, TopK: 64}
	body, _, err := execDiffuse(context.Background(), g, req, false)
	if err != nil {
		t.Fatal(err)
	}
	var got api.DiffuseResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	seed, _ := diffusion.SeedVector(g.N(), req.Seeds)
	v, err := diffusion.LazyWalk(g, seed, req.Alpha, req.K)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	support := 0
	for _, x := range v {
		sum += x
		if x != 0 {
			support++
		}
	}
	want := topMassesDense(v, support, req.TopK)
	if math.Float64bits(got.Sum) != math.Float64bits(sum) || len(got.Top) != len(want) {
		t.Fatalf("chunked walk: sum %v, %d top; one call: sum %v, %d top", got.Sum, len(got.Top), sum, len(want))
	}
	for i := range want {
		if got.Top[i].Node != want[i].Node || math.Float64bits(got.Top[i].Mass) != math.Float64bits(want[i].Mass) {
			t.Fatalf("top[%d] = %+v, one call gives %+v", i, got.Top[i], want[i])
		}
	}

	done, cancel := context.WithCancel(context.Background())
	cancel()
	req.K = math.MaxInt
	if _, _, err := execDiffuse(done, g, req, false); !errors.Is(err, context.Canceled) {
		t.Fatalf("walk under a cancelled context = %v, want context.Canceled", err)
	}
}

func TestNCPJobEndToEndAndDeterminism(t *testing.T) {
	_, _, c := testServer(t, Config{JobWorkers: 2})
	params := &api.NCPJobParams{Method: "spectral", Seeds: 4, Workers: 2, BaseSeed: 7}
	req, err := api.NewJob("ncp", "ring", params)
	if err != nil {
		t.Fatal(err)
	}

	v1, err := c.Jobs.Submit(ctx(), req)
	if err != nil {
		t.Fatal(err)
	}
	var ncpRes api.NCPJobResult
	v1, err = c.Jobs.WaitResult(ctx(), v1.ID, &ncpRes)
	if err != nil {
		t.Fatal(err)
	}
	if v1.Status != api.JobDone || v1.FromCache {
		t.Fatalf("job 1: %+v", v1)
	}
	if ncpRes.Spectral == nil || ncpRes.Spectral.Clusters == 0 || len(ncpRes.Spectral.Envelope) == 0 {
		t.Fatalf("ncp result: %+v", ncpRes)
	}
	raw1, err := c.Jobs.ResultRaw(ctx(), v1.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Identical submission replays the cached bytes.
	v2, err := c.Jobs.Submit(ctx(), req)
	if err != nil {
		t.Fatal(err)
	}
	v2, err = c.Jobs.Wait(ctx(), v2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Status != api.JobDone || !v2.FromCache {
		t.Fatalf("job 2 should be served from cache: %+v", v2)
	}
	raw2, err := c.Jobs.ResultRaw(ctx(), v2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw1, raw2) {
		t.Fatalf("repeated NCP job results are not byte-identical:\n%s\n%s", raw1, raw2)
	}

	// Params that only spell out defaults share the canonical cache key.
	req3, err := api.NewJob("ncp", "ring", &api.NCPJobParams{
		BaseSeed: 7, Workers: 2, Seeds: 4, Method: "spectral",
	})
	if err != nil {
		t.Fatal(err)
	}
	v3, err := c.Jobs.Submit(ctx(), req3)
	if err != nil {
		t.Fatal(err)
	}
	if v3, err = c.Jobs.Wait(ctx(), v3.ID); err != nil || !v3.FromCache {
		t.Fatalf("canonicalized params should cache-hit: %+v, %v", v3, err)
	}
}

func TestJobListAndBadRequests(t *testing.T) {
	_, ts, c := testServer(t, Config{})
	_, err := c.Jobs.Submit(ctx(), api.JobSubmitRequest{Type: "nope", Graph: "ring"})
	wantAPIErr(t, err, api.CodeInvalidArgument)
	_, err = c.Jobs.Submit(ctx(), api.JobSubmitRequest{Type: "ncp", Graph: "ghost"})
	wantAPIErr(t, err, api.CodeNotFound)
	// A submit body with bytes after its value is refused, not run.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"type":"ncp","graph":"ring"} {"type":"fig1"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := `{"error":{"code":"invalid_argument","message":"params: invalid character '{' after top-level value"}}` + "\n"; resp.StatusCode != http.StatusBadRequest || string(body) != want {
		t.Fatalf("submit with a second value: %d %s, want 400 %s", resp.StatusCode, body, want)
	}
	// An unregistered type names the registered ones in sorted order, so
	// the same bad request always gets the same bytes.
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"type":"fig1","graph":"ring"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := `{"error":{"code":"invalid_argument","message":"unknown job type \"fig1\" (have [ncp partition])"}}` + "\n"; resp.StatusCode != http.StatusBadRequest || string(body) != want {
		t.Fatalf("submit of an unknown type: %d %s, want 400 %s", resp.StatusCode, body, want)
	}

	// Bad algorithm params fail the job, not the submit.
	req, err := api.NewJob("ncp", "ring", &api.NCPJobParams{Method: "sideways"})
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.Jobs.Submit(ctx(), req)
	if err != nil {
		t.Fatal(err)
	}
	if fin, err := c.Jobs.Wait(ctx(), v.ID); err != nil || fin.Status != api.JobFailed {
		t.Fatalf("job with bad method: %+v, %v", fin, err)
	}
	_, err = c.Jobs.ResultRaw(ctx(), v.ID)
	wantAPIErr(t, err, api.CodeConflict)

	_, err = c.Jobs.Get(ctx(), "zzz")
	wantAPIErr(t, err, api.CodeNotFound)
	_, err = c.Jobs.Cancel(ctx(), "zzz")
	wantAPIErr(t, err, api.CodeNotFound)

	jobs, err := c.Jobs.List(ctx())
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 {
		t.Fatalf("job list: %+v", jobs)
	}
}

func TestJobCancellationMidRun(t *testing.T) {
	srv, _, c := testServer(t, Config{JobWorkers: 1})
	// A graph big enough that a 500-seed spectral profile cannot finish
	// before the cancel lands.
	rng := rand.New(rand.NewSource(3))
	g, err := gen.ForestFire(gen.ForestFireConfig{N: 3000, FwdProb: 0.37, Ambs: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Store().Put("big", g); err != nil {
		t.Fatal(err)
	}

	bigReq, err := api.NewJob("ncp", "big", &api.NCPJobParams{
		Method: "spectral", Seeds: 500, Workers: 2, BaseSeed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	running, err := c.Jobs.Submit(ctx(), bigReq)
	if err != nil {
		t.Fatal(err)
	}
	// The single worker is now busy; a second submission stays queued
	// and can be cancelled without ever running.
	smallReq, err := api.NewJob("ncp", "ring", &api.NCPJobParams{Method: "spectral", Seeds: 2})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := c.Jobs.Submit(ctx(), smallReq)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Jobs.Cancel(ctx(), queued.ID); err != nil {
		t.Fatal(err)
	}
	if fin, err := c.Jobs.Wait(ctx(), queued.ID); err != nil || fin.Status != api.JobCancelled {
		t.Fatalf("queued job after cancel: %+v, %v", fin, err)
	}

	// Wait until the first job is observably running, then cancel: the
	// worker pool must observe ctx.Done() mid-sweep.
	deadline := time.Now().Add(10 * time.Second)
	for {
		v, err := c.Jobs.Get(ctx(), running.ID)
		if err != nil {
			t.Fatal(err)
		}
		if v.Status == api.JobRunning {
			break
		}
		if v.Status != api.JobQueued || time.Now().After(deadline) {
			t.Fatalf("job never started running: %+v", v)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := c.Jobs.Cancel(ctx(), running.ID); err != nil {
		t.Fatal(err)
	}
	fin, err := c.Jobs.Wait(ctx(), running.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.Status != api.JobCancelled {
		t.Fatalf("running job after cancel: %+v", fin)
	}
	if !strings.Contains(fin.Error, "context canceled") {
		t.Errorf("cancelled job error = %q, want context.Canceled", fin.Error)
	}

	// Cancelling a finished job conflicts.
	_, err = c.Jobs.Cancel(ctx(), running.ID)
	wantAPIErr(t, err, api.CodeConflict)
}

func TestPartitionJob(t *testing.T) {
	_, _, c := testServer(t, Config{})
	req, err := api.NewJob("partition", "ring", &api.PartitionJobParams{
		K: 4, Seed: 2, IncludeLabels: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.Jobs.Submit(ctx(), req)
	if err != nil {
		t.Fatal(err)
	}
	var res api.PartitionJobResult
	if _, err := c.Jobs.WaitResult(ctx(), v.ID, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Parts) != 4 || len(res.Labels) != 64 {
		t.Fatalf("partition result: %+v", res)
	}
	total := 0
	for _, p := range res.Parts {
		total += p.Size
	}
	if total != 64 {
		t.Fatalf("part sizes sum to %d, want 64", total)
	}
}

// newGzipBytes compresses s, for building .gz fixtures.
func newGzipBytes(buf *bytes.Buffer, s string) []byte {
	zw := gzip.NewWriter(buf)
	zw.Write([]byte(s))
	zw.Close()
	return buf.Bytes()
}
