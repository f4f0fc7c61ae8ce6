package service

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/gstore"
	"repro/pkg/api"
)

// errCase is one request and the exact reply graphd must give it.
type errCase struct {
	name, method, path, body string
	status                   int
	want                     string // the reply body, less its newline
}

// envelope is the error reply for code and message, as json.Marshal
// writes it.
func envelope(code api.ErrorCode, msg string) string {
	b, _ := json.Marshal(api.ErrorEnvelope{Error: &api.Error{Code: code, Message: msg}})
	return string(b)
}

// send makes one request against base and returns its status and body.
func send(t *testing.T, base, method, path string, body []byte, header map[string]string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, base+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(got)
}

// checkCases sends every case and fails on any byte of difference.
func checkCases(t *testing.T, base string, cases []errCase) {
	t.Helper()
	for _, c := range cases {
		status, body := send(t, base, c.method, c.path, []byte(c.body), nil)
		if status != c.status || body != c.want+"\n" {
			t.Errorf("%s: %s %s %s\n got %d %s want %d %s", c.name, c.method, c.path, c.body, status, body, c.status, c.want)
		}
	}
}

// TestErrorRepliesPinned pins, through HTTP, the code, status and
// message of every error the store, the query pipeline and the job
// manager give, and the error string of a job whose graph went away.
func TestErrorRepliesPinned(t *testing.T) {
	_, ts, _ := testServer(t, Config{MaxBodyBytes: 1 << 10})
	if status, body := send(t, ts.URL, "POST", "/v1/graphs/s/stream", []byte(`{"nodes":10}`), nil); status != http.StatusCreated {
		t.Fatalf("stream create: %d %s", status, body)
	}
	const (
		inv  = api.CodeInvalidArgument
		nf   = api.CodeNotFound
		conf = api.CodeConflict
	)
	checkCases(t, ts.URL, []errCase{
		{"unknown graph", "GET", "/v1/graphs/ghost", "", 404, envelope(nf, `graph "ghost" not found`)},
		{"query on unknown graph", "POST", "/v1/graphs/ghost/ppr", `{"seeds":[0]}`, 404, envelope(nf, `graph "ghost" not found`)},
		{"delete unknown graph", "DELETE", "/v1/graphs/ghost", "", 404, envelope(nf, `graph "ghost" not found`)},
		{"export unknown graph", "GET", "/v1/graphs/ghost/snapshot", "", 404, envelope(nf, `graph "ghost" not found`)},
		{"query on streaming graph", "POST", "/v1/graphs/s/ppr", `{"seeds":[0]}`, 409, envelope(conf, `graph "s" is still streaming; seal it first`)},
		{"stats on streaming graph", "GET", "/v1/graphs/s/stats", "", 409, envelope(conf, `graph "s" is still streaming; seal it first`)},
		{"job on streaming graph", "POST", "/v1/jobs", `{"type":"ncp","graph":"s"}`, 409, envelope(conf, `graph "s" is still streaming; seal it first`)},
		{"duplicate name", "POST", "/v1/graphs/ring/generate", `{"family":"grid","rows":2,"cols":2}`, 409, envelope(conf, `graph "ring" already exists`)},
		{"duplicate stream", "POST", "/v1/graphs/s/stream", `{"nodes":3}`, 409, envelope(conf, `graph "s" already exists`)},
		{"bad name", "POST", "/v1/graphs/bad%20name/stream", `{"nodes":3}`, 400, envelope(inv, `graph name "bad name" contains invalid character ' '`)},
		{"append after seal", "POST", "/v1/graphs/ring/edges", `{"edges":[{"u":0,"v":1}]}`, 409, envelope(conf, `graph "ring" is sealed; cannot append edges`)},
		{"seal twice", "POST", "/v1/graphs/ring/seal", "", 409, envelope(conf, `graph "ring" is already sealed`)},
		{"append to unknown graph", "POST", "/v1/graphs/ghost/edges", `{"edges":[{"u":0,"v":1}]}`, 404, envelope(nf, `graph "ghost" not found`)},
		{"stream node bound", "POST", "/v1/graphs/huge/stream", `{"nodes":67108865}`, 400, envelope(inv, `stream graph needs 0 < nodes <= 67108864, got 67108865`)},
		{"stream edge bound", "POST", "/v1/graphs/s/edges", `{"edges":[{"u":0,"v":1},{"u":3,"v":10}]}`, 400, envelope(inv, `edge 1 (3,10) out of range [0,10)`)},
		{"generate cap", "POST", "/v1/graphs/ff/generate", `{"family":"forestfire","n":5000001}`, 400, envelope(inv, `forestfire capped at n <= 5000000`)},
		{"bad backend", "POST", "/v1/graphs/g2/generate?backend=heap", `{"family":"grid","rows":2,"cols":2}`, 400, envelope(inv, `gstore: unknown backend "heap" (want compact or mmap)`)},
		{"mmap without a data dir", "POST", "/v1/graphs/g3/generate?backend=mmap", `{"family":"grid","rows":2,"cols":2}`, 400, envelope(inv, `backend "mmap" requires a data directory`)},
		{"unknown job type", "POST", "/v1/jobs", `{"type":"nope","graph":"ring"}`, 400, envelope(inv, `unknown job type "nope" (have [ncp partition])`)},
		{"job on unknown graph", "POST", "/v1/jobs", `{"type":"ncp","graph":"ghost"}`, 404, envelope(nf, `graph "ghost" not found`)},
		{"unknown job", "GET", "/v1/jobs/j999", "", 404, envelope(nf, `job "j999" not found`)},
		{"result of unknown job", "GET", "/v1/jobs/j999/result", "", 404, envelope(nf, `job "j999" not found`)},
		{"cancel of unknown job", "DELETE", "/v1/jobs/j999", "", 404, envelope(nf, `job "j999" not found`)},
		{"batch seed with an empty cut", "POST", "/v1/graphs/ring/localcluster:batch", `{"seeds":[5,6],"eps":1}`, 400, envelope(inv, `seed 5: ppr produced no sweepable support (eps too large?)`)},
		{"batch seed with an empty sweep", "POST", "/v1/graphs/ring/ppr:batch", `{"seeds":[7,3],"eps":1,"sweep":true}`, 400, envelope(inv, `seed 7: ppr produced no sweepable support (eps too large?): local: sweep over empty vector`)},
		{"batch seed out of range", "POST", "/v1/graphs/ring/ppr:batch", `{"seeds":[0,64]}`, 400, envelope(inv, `kernel: seed 64 out of range [0,64)`)},
		{"sweepcut node out of range", "POST", "/v1/graphs/ring/sweepcut", `{"values":[{"node":3,"mass":1},{"node":64,"mass":1}]}`, 400, envelope(inv, `node 64 out of range [0,64)`)},
		{"sweepcut repeated node", "POST", "/v1/graphs/ring/sweepcut", `{"values":[{"node":1,"mass":1},{"node":1,"mass":2}]}`, 400, envelope(inv, `node 1 appears twice`)},
	})

	// A gzip body that inflates past four times the body cap (here 4 097
	// bytes, whole lines) is refused whole, not stored truncated.
	var zipped bytes.Buffer
	zw := gzip.NewWriter(&zipped)
	zw.Write([]byte("#xxx\n" + strings.Repeat("0 1\n", 2000)))
	zw.Close()
	status, body := send(t, ts.URL, "POST", "/v1/graphs/bomb", zipped.Bytes(), map[string]string{"Content-Type": "text/plain"})
	if want := envelope(inv, `graph: scan: decompressed body too large`); status != 400 || body != want+"\n" {
		t.Errorf("gzip bomb: got %d %s want 400 %s", status, body, want)
	}

	t.Run("jobs", jobErrorsPinned)
	t.Run("shutdown", shutdownErrorsPinned)
}

// TestGzipCutMidLineNamesTheCap: a gzip body whose inflated bytes the
// cap (4 097 bytes here) cuts inside a line is refused with the cap's
// message, not a parse error on the cut line "0".
func TestGzipCutMidLineNamesTheCap(t *testing.T) {
	_, ts, _ := testServer(t, Config{MaxBodyBytes: 1 << 10})
	var zipped bytes.Buffer
	zw := gzip.NewWriter(&zipped)
	zw.Write([]byte(strings.Repeat("0 1\n", 2000)))
	zw.Close()
	status, body := send(t, ts.URL, "POST", "/v1/graphs/cut", zipped.Bytes(), map[string]string{"Content-Type": "text/plain"})
	if want := envelope(api.CodeInvalidArgument, `graph: scan: decompressed body too large`); status != 400 || body != want+"\n" {
		t.Errorf("got %d %s want 400 %s", status, body, want)
	}
}

// jobErrorsPinned holds the one worker of a daemon with a job that runs
// until cancelled, and pins the replies about it and about the jobs
// queued behind it, two of which lose their graph while they wait.
func jobErrorsPinned(t *testing.T) {
	srv, ts, _ := testServer(t, Config{JobWorkers: 1})
	g, err := gen.ForestFire(gen.ForestFireConfig{N: 3000, FwdProb: 0.37, Ambs: 1}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Store().Put("big", gstore.Wrap(g)); err != nil {
		t.Fatal(err)
	}
	must := func(method, path, body string, want int) string {
		t.Helper()
		status, got := send(t, ts.URL, method, path, []byte(body), nil)
		if status != want {
			t.Fatalf("%s %s %s: %d %s, want %d", method, path, body, status, got, want)
		}
		return got
	}
	view := func(id string) api.JobView {
		t.Helper()
		var v api.JobView
		if err := json.Unmarshal([]byte(must("GET", "/v1/jobs/"+id, "", 200)), &v); err != nil {
			t.Fatal(err)
		}
		return v
	}
	await := func(id string, done func(api.JobView) bool) api.JobView {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for {
			v := view(id)
			if done(v) {
				return v
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s: %+v", id, v)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	const grid = `{"family":"grid","rows":3,"cols":3}`
	must("POST", "/v1/graphs/x/generate", grid, 201)
	must("POST", "/v1/graphs/y/generate", grid, 201)
	// j1 runs far longer than this test; j2..j4 queue behind it.
	must("POST", "/v1/jobs", `{"type":"ncp","graph":"big","params":{"method":"spectral","seeds":100000,"base_seed":9}}`, 202)
	must("POST", "/v1/jobs", `{"type":"ncp","graph":"x","params":{"method":"spectral","seeds":2}}`, 202)
	must("POST", "/v1/jobs", `{"type":"ncp","graph":"y","params":{"method":"spectral","seeds":2}}`, 202)
	must("POST", "/v1/jobs", `{"type":"ncp","graph":"ring","params":{"method":"sideways"}}`, 202)
	await("j1", func(v api.JobView) bool { return v.Status == api.JobRunning })
	conf := api.CodeConflict
	checkCases(t, ts.URL, []errCase{
		{"result of a running job", "GET", "/v1/jobs/j1/result", "", 409, envelope(conf, `job "j1" is running`)},
		{"result of a queued job", "GET", "/v1/jobs/j2/result", "", 409, envelope(conf, `job "j2" is queued`)},
	})
	// x is deleted and re-created, y only deleted, while their jobs wait.
	must("DELETE", "/v1/graphs/x", "", 200)
	must("POST", "/v1/graphs/x/generate", grid, 201)
	must("DELETE", "/v1/graphs/y", "", 200)
	must("DELETE", "/v1/jobs/j1", "", 200)
	for id, want := range map[string]string{
		"j2": `graph "x" was replaced after submission`,
		"j3": `graph "y" not found`,
		"j4": `ncp method must be spectral|flow|both, got "sideways"`,
	} {
		if v := await(id, func(v api.JobView) bool { return v.Status.Terminal() }); v.Status != api.JobFailed || v.Error != want {
			t.Errorf("job %s: %s %q, want failed %q", id, v.Status, v.Error, want)
		}
	}
	if v := await("j1", func(v api.JobView) bool { return v.Status.Terminal() }); v.Status != api.JobCancelled {
		t.Errorf("job j1: %s %q, want cancelled", v.Status, v.Error)
	}
	checkCases(t, ts.URL, []errCase{
		{"result of a failed job", "GET", "/v1/jobs/j2/result", "", 409, envelope(conf, `job "j2" failed: graph "x" was replaced after submission`)},
		{"result of a job whose graph is gone", "GET", "/v1/jobs/j3/result", "", 409, envelope(conf, `job "j3" failed: graph "y" not found`)},
		{"result of a job with bad params", "GET", "/v1/jobs/j4/result", "", 409, envelope(conf, `job "j4" failed: ncp method must be spectral|flow|both, got "sideways"`)},
		{"result of a cancelled job", "GET", "/v1/jobs/j1/result", "", 409, envelope(conf, `job "j1" was cancelled`)},
		{"cancel of a cancelled job", "DELETE", "/v1/jobs/j1", "", 409, envelope(conf, `job "j1" already cancelled`)},
		{"cancel of a failed job", "DELETE", "/v1/jobs/j2", "", 409, envelope(conf, `job "j2" already failed`)},
	})
}

// shutdownErrorsPinned pins what a closed daemon answers: every write
// and every new computation is unavailable.
func shutdownErrorsPinned(t *testing.T) {
	srv, ts, _ := testServer(t, Config{})
	if status, body := send(t, ts.URL, "POST", "/v1/graphs/s/stream", []byte(`{"nodes":10}`), nil); status != http.StatusCreated {
		t.Fatalf("stream create: %d %s", status, body)
	}
	srv.Close()
	un := api.CodeUnavailable
	checkCases(t, ts.URL, []errCase{
		{"create after shutdown", "POST", "/v1/graphs/t/stream", `{"nodes":3}`, 503, envelope(un, `graph store is shut down`)},
		{"put after shutdown", "POST", "/v1/graphs/g/generate", `{"family":"grid","rows":2,"cols":2}`, 503, envelope(un, `graph store is shut down`)},
		{"append after shutdown", "POST", "/v1/graphs/s/edges", `{"edges":[{"u":0,"v":1}]}`, 503, envelope(un, `graph store is shut down`)},
		{"seal after shutdown", "POST", "/v1/graphs/s/seal", "", 503, envelope(un, `graph store is shut down`)},
		{"query after shutdown", "POST", "/v1/graphs/ring/ppr", `{"seeds":[0]}`, 503, envelope(un, `server is shutting down`)},
		{"batch after shutdown", "POST", "/v1/graphs/ring/ppr:batch", `{"seeds":[0,1]}`, 503, envelope(un, `server is shutting down`)},
		{"job after shutdown", "POST", "/v1/jobs", `{"type":"ncp","graph":"ring"}`, 503, envelope(un, `job manager is shut down`)},
	})
}
