package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span names. One traced op is a tree under a single root "request"
// span. "client.roundtrip" wraps one SDK call and "service.handler" the
// server handler inside it; the "cycle.*" stages group the SDK calls of
// one ingest cycle. The replayed spans are the bench calling a layer's
// public function on the op's own input right after the request, so
// they sit beside the roundtrip under the root, not inside the handler.
const (
	spanRequest   = "request"
	spanRoundtrip = "client.roundtrip"
	spanHandler   = "service.handler"
	spanDecode    = "api.decode"
	spanKernel    = "kernel.diffuse"
	spanSweep     = "local.sweep"
	spanEncode    = "api.encode"
)

// span is one timed interval of a traced op. IDs are unique within a
// trace; Parent 0 marks the op's root. Times are nanoseconds since the
// recorder's epoch.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Handler spans only: the X-Graphd-Cache outcome and exact body sizes.
	Cache     string `json:"cache,omitempty"`
	ReqBytes  int64  `json:"req_bytes,omitempty"`
	RespBytes int64  `json:"resp_bytes,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. Clients and the
// server's handler wrapper append concurrently.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	// cur is the (op, parent) the handler wrapper attributes its span
	// to, packed op<<32|parent; 0 while no sequential traced op is in
	// flight. Only the sequential phase sets it, so it is unambiguous.
	cur atomic.Uint64
	// allocs switches the handler wrapper from recording spans to
	// counting the handler's allocations (see countAllocs).
	allocs        atomic.Bool
	before, after runtime.MemStats
	mallocs       uint64
	allocBytes    uint64
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span and returns its id.
func (r *recorder) begin(op, parent int, name string) int {
	t := r.now()
	r.mu.Lock()
	r.spans = append(r.spans, span{Op: op, ID: len(r.spans) + 1, Parent: parent, Name: name, Start: t})
	id := len(r.spans)
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	t := r.now()
	r.mu.Lock()
	r.spans[id-1].End = t
	r.mu.Unlock()
}

// reset drops every span recorded so far.
func (r *recorder) reset() {
	r.mu.Lock()
	r.spans = r.spans[:0]
	r.mu.Unlock()
}

// opTracer is the client-side handle for one traced op: nil means
// tracing is off and every method is a no-op, so the measured loop and
// the traced loop run the same op code.
type opTracer struct {
	rec    *recorder
	op     int
	parent int         // span new client-side spans hang under
	replay bool        // sequential phase: handler spans and per-layer replays
	work   *workTotals // replay only: kernel work counters of the replays
}

// span times fn as a child of the tracer's current parent.
func (t *opTracer) span(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	id := t.rec.begin(t.op, t.parent, name)
	fn()
	t.rec.end(id)
}

// roundtrip times one SDK call. In the sequential phase the handler
// wrapper hangs its span under this one while the call is in flight.
func (t *opTracer) roundtrip(fn func()) {
	if t == nil {
		fn()
		return
	}
	id := t.rec.begin(t.op, t.parent, spanRoundtrip)
	if t.replay {
		t.rec.cur.Store(uint64(t.op)<<32 | uint64(id))
	}
	fn()
	t.rec.cur.Store(0)
	t.rec.end(id)
}

// stage runs fn with a named span as the parent of the spans it opens.
func (t *opTracer) stage(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	outer := t.parent
	id := t.rec.begin(t.op, outer, name)
	t.parent = id
	fn()
	t.parent = outer
	t.rec.end(id)
}

// replaying reports whether the op should run its per-layer replays.
func (t *opTracer) replaying() bool { return t != nil && t.replay }

// countAllocs serves one request with a MemStats read either side. The
// single sequential client is blocked on the reply meanwhile, so what
// the process allocates in between is the handler's own.
func (r *recorder) countAllocs(next http.Handler, w http.ResponseWriter, req *http.Request) {
	r.mu.Lock()
	defer r.mu.Unlock()
	runtime.ReadMemStats(&r.before)
	next.ServeHTTP(w, req)
	runtime.ReadMemStats(&r.after)
	r.mallocs += r.after.Mallocs - r.before.Mallocs
	r.allocBytes += r.after.TotalAlloc - r.before.TotalAlloc
}

// countingWriter counts the response bytes the handler writes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// traceHandler wraps the daemon's handler from outside: during a
// sequential traced op it records a service.handler span (with the
// cache outcome and exact body sizes); in alloc mode it counts the
// allocations made while the handler runs. Otherwise it passes through.
func traceHandler(rec *recorder, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if rec.allocs.Load() {
			rec.countAllocs(next, w, r)
			return
		}
		cur := rec.cur.Load()
		if cur == 0 {
			next.ServeHTTP(w, r)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		id := rec.begin(int(cur>>32), int(cur&0xffffffff), spanHandler)
		next.ServeHTTP(cw, r)
		t := rec.now()
		rec.mu.Lock()
		s := &rec.spans[id-1]
		s.End = t
		s.Cache = cw.Header().Get("X-Graphd-Cache")
		s.ReqBytes = max(r.ContentLength, 0)
		s.RespBytes = cw.n
		rec.mu.Unlock()
	})
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval covered by its direct children (overlapping children are
// counted once, and a child is clipped to its parent).
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, p := range spans {
		kids := children[p.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), p.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, p.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[p.ID] = p.dur() - covered
	}
	return self
}

// checkTrace verifies the shape every trace file promises: each op has
// exactly one root span, every other span's parent exists in the same
// op, and no span has negative self time.
func checkTrace(spans []span) error {
	byID := make(map[int]span, len(spans))
	roots := make(map[int]int)
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent == 0 {
			if s.Name != spanRequest {
				return fmt.Errorf("trace: op %d root span is %q, want %q", s.Op, s.Name, spanRequest)
			}
			roots[s.Op]++
		}
	}
	for _, s := range spans {
		if roots[s.Op] != 1 {
			return fmt.Errorf("trace: op %d has %d root spans, want 1", s.Op, roots[s.Op])
		}
		if s.End < s.Start {
			return fmt.Errorf("trace: span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if p, ok := byID[s.Parent]; s.Parent != 0 && (!ok || p.Op != s.Op) {
			return fmt.Errorf("trace: span %d (%s) has no parent %d in op %d", s.ID, s.Name, s.Parent, s.Op)
		}
	}
	for id, self := range selfTimes(spans) {
		if self < 0 {
			return fmt.Errorf("trace: span %d (%s) has negative self time %d ns", id, byID[id].Name, self)
		}
	}
	return nil
}

// writeTrace writes one JSON span per line.
func writeTrace(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
