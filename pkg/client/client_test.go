package client

import (
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/pkg/api"
)

func newTestClient(t *testing.T, h http.Handler, opts ...Option) (*Client, *httptest.Server) {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	c, err := New(ts.URL, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return c, ts
}

func TestNewRejectsBadBaseURL(t *testing.T) {
	for _, bad := range []string{"", "localhost:8080", "://x", "http://"} {
		if _, err := New(bad); err == nil {
			t.Errorf("New(%q) accepted a bad base URL", bad)
		}
	}
	if _, err := New("http://localhost:8080/"); err != nil {
		t.Fatalf("New rejected a good base URL: %v", err)
	}
}

func TestErrorEnvelopeDecoding(t *testing.T) {
	c, _ := newTestClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(api.ErrorEnvelope{
			Error: api.Errorf(api.CodeNotFound, "graph %q not found", "ghost"),
		})
	}), WithRetries(0))
	_, err := c.Graphs.Stats(context.Background(), "ghost")
	if !api.IsNotFound(err) {
		t.Fatalf("err = %v, want not_found", err)
	}
	var ae *api.Error
	if ok := asAPIError(err, &ae); !ok || ae.Status != http.StatusNotFound {
		t.Fatalf("error should carry the HTTP status: %+v", err)
	}
}

func asAPIError(err error, target **api.Error) bool {
	if e, ok := err.(*api.Error); ok {
		*target = e
		return true
	}
	return false
}

func TestErrorWithoutEnvelopeFallsBackToStatus(t *testing.T) {
	c, _ := newTestClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "plain proxy error", http.StatusConflict)
	}), WithRetries(0))
	_, err := c.Graphs.Seal(context.Background(), "g")
	if !api.IsConflict(err) {
		t.Fatalf("err = %v, want conflict synthesized from status", err)
	}
	if !strings.Contains(err.Error(), "plain proxy error") {
		t.Fatalf("err should keep the body text: %v", err)
	}
}

func TestRetryOn5xxThenSuccess(t *testing.T) {
	var calls atomic.Int32
	c, _ := newTestClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		json.NewEncoder(w).Encode(api.HealthResponse{Status: "ok"})
	}), WithRetries(3), WithBackoff(time.Millisecond, 10*time.Millisecond))
	h, err := c.Health(context.Background())
	if err != nil || h.Status != "ok" {
		t.Fatalf("Health = %+v, %v; want ok after retries", h, err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3 (two 503s then success)", got)
	}
}

func TestRetryBudgetExhausted(t *testing.T) {
	var calls atomic.Int32
	c, _ := newTestClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	}), WithRetries(2), WithBackoff(time.Millisecond, 2*time.Millisecond))
	_, err := c.Health(context.Background())
	if err == nil {
		t.Fatal("want error after exhausting retries")
	}
	var ae *api.Error
	if !asAPIError(err, &ae) || ae.Status != http.StatusInternalServerError {
		t.Fatalf("err = %#v, want *api.Error with status 500", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3 (1 + 2 retries)", got)
	}
}

func TestNo4xxRetry(t *testing.T) {
	var calls atomic.Int32
	c, _ := newTestClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(api.ErrorEnvelope{Error: api.Errorf(api.CodeInvalidArgument, "nope")})
	}), WithRetries(5), WithBackoff(time.Millisecond, time.Millisecond))
	_, err := c.Graphs.PPR(context.Background(), "g", api.PPRRequest{Seeds: []int{0}})
	if !api.IsInvalidArgument(err) {
		t.Fatalf("err = %v, want invalid_argument", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("4xx was retried: %d calls", got)
	}
}

func TestRetryOnConnectionError(t *testing.T) {
	// A server that dies after its first (failed) response exercises the
	// transport-error path: the listener is closed, so every attempt
	// fails at dial time and the retry budget drains.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	url := ts.URL
	ts.Close()
	c, err := New(url, WithRetries(2), WithBackoff(time.Millisecond, 2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := c.Health(context.Background()); err == nil {
		t.Fatal("want connection error")
	}
	// Backoff must have run between attempts: 1ms + 2ms floors.
	if elapsed := time.Since(start); elapsed < 3*time.Millisecond {
		t.Fatalf("retries returned after %v; backoff did not run", elapsed)
	}
	if _, err := c.Health(context.Background()); !IsRetryable(err) {
		t.Fatalf("a connection error should classify as retryable: %v", err)
	}
}

// failingTransport counts attempts and fails them all at dial level.
type failingTransport struct{ calls atomic.Int32 }

func (f *failingTransport) RoundTrip(*http.Request) (*http.Response, error) {
	f.calls.Add(1)
	return nil, fmt.Errorf("dial tcp: connection refused")
}

func TestNoTransportRetryForNonGET(t *testing.T) {
	// Non-GET calls must NOT be replayed on connection errors: the lost
	// response may have committed server-side work (duplicate jobs,
	// double graph loads). GETs, by contrast, drain the retry budget.
	ft := &failingTransport{}
	c, err := New("http://graphd.invalid",
		WithHTTPClient(&http.Client{Transport: ft}),
		WithRetries(3), WithBackoff(time.Microsecond, time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Jobs.Submit(context.Background(), api.JobSubmitRequest{Type: "ncp"}); err == nil {
		t.Fatal("want connection error")
	}
	if got := ft.calls.Load(); got != 1 {
		t.Fatalf("POST saw %d attempts, want 1 (no transport-error replay)", got)
	}

	ft.calls.Store(0)
	if _, err := c.Health(context.Background()); err == nil {
		t.Fatal("want connection error")
	}
	if got := ft.calls.Load(); got != 4 {
		t.Fatalf("GET saw %d attempts, want 4 (1 + 3 retries)", got)
	}
}

func TestContextCancelStopsRetries(t *testing.T) {
	var calls atomic.Int32
	c, _ := newTestClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
	}), WithRetries(100), WithBackoff(50*time.Millisecond, time.Second))
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	_, err := c.Health(ctx)
	if err == nil {
		t.Fatal("want error")
	}
	if got := calls.Load(); got > 3 {
		t.Fatalf("context cancellation did not stop the retry loop: %d calls", got)
	}
}

func TestGzipUpload(t *testing.T) {
	got := make(chan string, 1)
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// The server sniffs gzip by magic bytes, like graphd does.
		var rd io.Reader = r.Body
		buf := make([]byte, 2)
		n, _ := io.ReadFull(r.Body, buf)
		if n == 2 && buf[0] == 0x1f && buf[1] == 0x8b {
			zr, err := gzip.NewReader(io.MultiReader(strings.NewReader(string(buf)), r.Body))
			if err != nil {
				t.Errorf("gunzip: %v", err)
				return
			}
			rd = zr
		} else {
			rd = io.MultiReader(strings.NewReader(string(buf[:n])), r.Body)
		}
		body, _ := io.ReadAll(rd)
		got <- string(body)
		w.WriteHeader(http.StatusCreated)
		json.NewEncoder(w).Encode(api.GraphInfo{Name: "g", Sealed: true, Nodes: 3, Edges: 2})
	})

	const edges = "0 1\n1 2\n"
	// Without the option the body travels verbatim...
	plain, _ := newTestClient(t, handler, WithRetries(0))
	if _, err := plain.Graphs.Load(context.Background(), "g", strings.NewReader(edges)); err != nil {
		t.Fatal(err)
	}
	if body := <-got; body != edges {
		t.Fatalf("plain upload body = %q", body)
	}
	// ...with it the server receives a gzip stream that inflates back.
	zipped, _ := newTestClient(t, handler, WithRetries(0), WithGzipUpload())
	info, err := zipped.Graphs.Load(context.Background(), "g", strings.NewReader(edges))
	if err != nil {
		t.Fatal(err)
	}
	if body := <-got; body != edges {
		t.Fatalf("gzip upload inflated to %q", body)
	}
	if !info.Sealed || info.Nodes != 3 {
		t.Fatalf("load response: %+v", info)
	}
}

func TestServerTimeoutQueryParam(t *testing.T) {
	seen := make(chan string, 1)
	c, _ := newTestClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen <- r.URL.Query().Get("timeout_ms")
		json.NewEncoder(w).Encode(api.PPRResponse{})
	}), WithRetries(0), WithServerTimeout(1500*time.Millisecond))
	if _, err := c.Graphs.PPR(context.Background(), "g", api.PPRRequest{Seeds: []int{0}}); err != nil {
		t.Fatal(err)
	}
	if got := <-seen; got != "1500" {
		t.Fatalf("timeout_ms = %q, want 1500", got)
	}
}

// fakeJobServer flips a job from running to done after `polls` GETs.
func fakeJobServer(polls int32, final api.JobStatus, result string) http.Handler {
	var gets atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(api.JobView{ID: "j1", Status: api.JobQueued})
	})
	mux.HandleFunc("GET /v1/jobs/j1", func(w http.ResponseWriter, r *http.Request) {
		status := api.JobRunning
		if gets.Add(1) > polls {
			status = final
		}
		json.NewEncoder(w).Encode(api.JobView{ID: "j1", Status: status})
	})
	mux.HandleFunc("GET /v1/jobs/j1/result", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, result)
	})
	return mux
}

func TestJobsWaitPollsToTerminal(t *testing.T) {
	c, _ := newTestClient(t, fakeJobServer(3, api.JobDone, `{"nodes":9,"edges":12}`),
		WithRetries(0), WithPollInterval(time.Millisecond))
	view, err := c.Jobs.Submit(context.Background(), api.JobSubmitRequest{Type: "ncp", Graph: "g"})
	if err != nil {
		t.Fatal(err)
	}
	var res api.NCPJobResult
	fin, err := c.Jobs.WaitResult(context.Background(), view.ID, &res)
	if err != nil {
		t.Fatal(err)
	}
	if fin.Status != api.JobDone || res.Nodes != 9 || res.EdgesM != 12 {
		t.Fatalf("WaitResult: %+v, %+v", fin, res)
	}
}

func TestJobsWaitSurfacesFailureAsStatusNotError(t *testing.T) {
	c, _ := newTestClient(t, fakeJobServer(1, api.JobFailed, ""),
		WithRetries(0), WithPollInterval(time.Millisecond))
	view, err := c.Jobs.Wait(context.Background(), "j1")
	if err != nil {
		t.Fatalf("Wait on a failed job must not error at transport level: %v", err)
	}
	if view.Status != api.JobFailed {
		t.Fatalf("status = %s, want failed", view.Status)
	}
	// WaitResult, by contrast, converts the failure into a conflict.
	if _, err := c.Jobs.WaitResult(context.Background(), "j1", &struct{}{}); !api.IsConflict(err) {
		t.Fatalf("WaitResult err = %v, want conflict", err)
	}
}

func TestJobsWaitHonorsContext(t *testing.T) {
	// The job never finishes; Wait must stop when the context does.
	c, _ := newTestClient(t, fakeJobServer(1<<30, api.JobDone, ""),
		WithRetries(0), WithPollInterval(time.Millisecond))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Jobs.Wait(ctx, "j1")
	if err == nil {
		t.Fatal("want context error")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("Wait ignored the context deadline")
	}
}

// rawReply answers every request with the given bytes, written straight
// to the connection, and closes it: the way to send a Content-Length the
// body does not honour.
func rawReply(t *testing.T, calls *atomic.Int32, reply func(call int32) string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, _, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		io.WriteString(conn, reply(calls.Add(1)))
	})
}

// TestChunkedReply: a reply without a Content-Length (a proxy re-chunked
// it, or an older graphd sent it) is read to its end as before, and a
// ppr reply in it decodes to the same struct.
func TestChunkedReply(t *testing.T) {
	want := api.PPRResponse{Support: 2, Sum: 0.75, Pushes: 3, WorkVolume: 9,
		Top: []api.NodeMass{{Node: 4, Mass: 0.5}, {Node: 1, Mass: 0.25}}, Sweep: &api.SweepInfo{Set: []int{4}, Size: 1, Conductance: 0.5, Prefix: 1}}
	body, err := want.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := newTestClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for _, half := range [][]byte{body[:len(body)/2], body[len(body)/2:], []byte("\n")} {
			w.Write(half)
			w.(http.Flusher).Flush()
		}
	}))
	got, err := c.Graphs.PPR(context.Background(), "g", api.PPRRequest{Seeds: []int{4}})
	if err != nil {
		t.Fatal(err)
	}
	if a, _ := json.Marshal(got); string(a) != string(body) {
		t.Fatalf("decoded %s, sent %s", a, body)
	}
}

// TestShortBodyIsAReadError: a body that ends before its declared
// length is the read error it always was — not a short buffer handed to
// the decoder — and a GET is retried past it.
func TestShortBodyIsAReadError(t *testing.T) {
	var calls atomic.Int32
	c, _ := newTestClient(t, rawReply(t, &calls, func(call int32) string {
		if call == 1 {
			return "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 100\r\n\r\n{\"status\":\"ok\""
		}
		return "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 16\r\n\r\n{\"status\":\"ok\"}\n"
	}), WithRetries(0))
	_, err := c.Health(context.Background())
	if err == nil || !strings.Contains(err.Error(), "reading response") || !strings.Contains(err.Error(), io.ErrUnexpectedEOF.Error()) {
		t.Fatalf("short body: err = %v, want the unexpected-EOF read error", err)
	}
	calls.Store(0)
	c.retries, c.backoff = 1, time.Millisecond
	if h, err := c.Health(context.Background()); err != nil || h.Status != "ok" || calls.Load() != 2 {
		t.Fatalf("retry past a short body: %+v, err %v, %d calls", h, err, calls.Load())
	}
}

// TestHugeDeclaredLength: a Content-Length is the peer's word, so it
// sizes a buffer only up to maxSizedRead; a reply declaring more is
// read as it comes, and one that then hangs up costs next to nothing.
func TestHugeDeclaredLength(t *testing.T) {
	var calls atomic.Int32
	c, _ := newTestClient(t, rawReply(t, &calls, func(int32) string {
		return "HTTP/1.1 200 OK\r\nContent-Length: 1099511627776\r\n\r\n{\"status\":"
	}), WithRetries(0))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := c.Health(context.Background())
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "reading response") {
		t.Fatalf("err = %v, want a read error", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("a reply declaring 1 TiB made the client allocate %d bytes", got)
	}
}

// TestPooledReplyBufferIsNotAliased: the ppr replies are read into a
// pooled buffer that the next call reuses, so nothing a decoded reply
// holds may point into it — a larger reply and then a smaller one, each
// read into the buffer the last call left, leave every earlier result
// as it was decoded.
func TestPooledReplyBufferIsNotAliased(t *testing.T) {
	replies := []api.PPRBatchResponse{
		{Results: []api.PPRBatchResult{{Seed: 1, Support: 2, Top: []api.NodeMass{{Node: 7, Mass: 0.5}}, Sweep: &api.SweepInfo{Set: []int{7, 8}}}}, TotalWork: 3,
			Work: &api.WorkStats{Method: "push-batch", Pushes: 4}},
		{Results: []api.PPRBatchResult{{Seed: 9, Top: []api.NodeMass{}}}, Work: &api.WorkStats{Method: "xxxx-batch"}},
	}
	var calls atomic.Int32
	c, _ := newTestClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := json.Marshal(replies[(calls.Add(1)-1)%2])
		if err != nil {
			t.Error(err)
		}
		w.Header().Set("Content-Length", strconv.Itoa(len(body)+1))
		w.Write(append(body, '\n'))
	}))
	var got []api.PPRBatchResponse
	for i := 0; i < 4; i++ {
		res, err := c.Graphs.PPRBatch(context.Background(), "g", api.PPRBatchRequest{Seeds: []int{1}})
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, res)
	}
	for i, res := range got {
		a, _ := json.Marshal(res)
		if b, _ := json.Marshal(replies[i%2]); string(a) != string(b) {
			t.Fatalf("call %d was sent %s and now holds %s", i, b, a)
		}
	}
}

// TestEdgeBatchBodies: an edge batch goes out as json.Marshal's bytes,
// with its length declared, whatever its weights — from the pooled
// buffer a larger batch left behind too.
func TestEdgeBatchBodies(t *testing.T) {
	var got atomic.Pointer[[]byte]
	c, _ := newTestClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil || r.ContentLength != int64(len(body)) {
			t.Errorf("read %d bytes (err %v) of a body declaring %d", len(body), err, r.ContentLength)
		}
		got.Store(&body)
		io.WriteString(w, `{"appended":1}`)
	}))
	for _, edges := range [][]api.StreamEdge{
		{{U: 0, V: 1}, {U: 5, V: 3, W: 0.25}, {U: 2, V: 9, W: 1e-9}, {U: 1, V: 2, W: 1}},
		{{U: 7, V: 8, W: math.Copysign(0, -1)}},
		nil,
	} {
		if _, err := c.Graphs.AppendEdges(context.Background(), "g", edges); err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(api.EdgeBatchRequest{Edges: edges})
		if err != nil {
			t.Fatal(err)
		}
		if string(*got.Load()) != string(want) {
			t.Fatalf("sent %s, json.Marshal says %s", *got.Load(), want)
		}
	}
}

// TestPooledRequestBody: a body up to maxCopiedBody is sent from a copy;
// a larger one's pooled buffer is not reused while a reader the
// transport opened over it is still open, even after the call let go;
// and after one oversized batch the pool keeps no buffer over
// maxKeptBody.
func TestPooledRequestBody(t *testing.T) {
	// One P and no collection: the pool's puts land where this
	// goroutine's gets look, and stay there.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	encode := func(edges []api.StreamEdge) *requestBody {
		t.Helper()
		b, err := encodeBody(&api.EdgeBatchRequest{Edges: edges})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if small := encode([]api.StreamEdge{{U: 1, V: 2}}); small.buf != nil {
		t.Fatalf("a %d-byte body is sent from the pool", len(small.data))
	}
	pooled := make([]api.StreamEdge, maxCopiedBody/8) // 14 bytes an edge
	first := encode(pooled)
	if first.buf == nil {
		t.Fatalf("a %d-byte body is sent from a copy", len(first.data))
	}
	want := string(first.data)
	r := first.open()
	first.release()
	pooled[0] = api.StreamEdge{U: 3, V: 4, W: 5}
	second := encode(pooled)
	if got, _ := io.ReadAll(r); string(got) != want {
		t.Fatalf("an open reader read %s, the call sent %s", got, want)
	}
	r.Close()
	second.release()

	huge := make([]api.StreamEdge, maxKeptBody/8) // 14 bytes an edge
	for _, edges := range [][]api.StreamEdge{huge, huge[:2]} {
		encode(edges).release()
	}
	for range 4 {
		if buf := bodyScratch.Get().(*[]byte); cap(*buf) > maxKeptBody {
			t.Fatalf("the request pool holds a %d-byte buffer", cap(*buf))
		}
	}
}
