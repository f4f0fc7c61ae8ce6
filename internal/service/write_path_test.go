package service

import (
	"bytes"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/pkg/api"
)

// edgeBatch is n unit edges on a graph of nodes vertices.
func edgeBatch(n, nodes int) []api.StreamEdge {
	b := make([]api.StreamEdge, n)
	for i := range b {
		b[i] = api.StreamEdge{U: i % nodes, V: (i*7 + 1) % nodes}
	}
	return b
}

// TestAppendEdgesSteadyStateAllocs locks the store's write path: once an
// entry's scratch batch and its WAL's record buffer have grown, logging
// and applying a batch allocates nothing but the builder's amortised
// growth.
func TestAppendEdgesSteadyStateAllocs(t *testing.T) {
	s, err := NewGraphStore(t.TempDir(), "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.BeginStream("g", 4096); err != nil {
		t.Fatal(err)
	}
	batch := edgeBatch(256, 4096)
	if err := s.AppendEdges("g", batch); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(20, func() {
		if err := s.AppendEdges("g", batch); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("a steady-state AppendEdges allocates %v times, want 0", got)
	}
}

// TestWritePathBuffersStayBounded sends one oversized batch (2 MiB of
// edges, 1.4 MB of JSON) and then a small one, through the HTTP handler
// and straight to the store: none of decode's pooled bodies, the append
// handler's pooled edges and the entry's scratch batch keeps more than
// maxKeptBytes afterwards.
func TestWritePathBuffersStayBounded(t *testing.T) {
	// One P and no collection: the handlers' pool puts land where this
	// goroutine's gets look, and stay there.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	srv, _, c := testServer(t, Config{})
	huge := edgeBatch(maxKeptBytes/12, 64)
	for _, name := range []string{"wire", "direct"} {
		if _, err := c.Graphs.Stream(ctx(), name, 64); err != nil {
			t.Fatal(err)
		}
	}
	for _, edges := range [][]api.StreamEdge{huge, edgeBatch(3, 64)} {
		if _, err := c.Graphs.AppendEdges(ctx(), "wire", edges); err != nil {
			t.Fatal(err)
		}
		if err := srv.Store().AppendEdges("direct", edges); err != nil {
			t.Fatal(err)
		}
		e, err := srv.Store().lock("direct")
		if err != nil {
			t.Fatal(err)
		}
		if !small(e.batch) {
			t.Errorf("after a %d-edge batch the entry keeps room for %d", len(edges), cap(e.batch))
		}
		e.mu.Unlock()
	}
	for range 4 {
		if scratch := edgeScratch.Get().(*[]api.StreamEdge); !small(*scratch) {
			t.Errorf("the append handler's pool holds room for %d edges", cap(*scratch))
		}
		if body := bodyScratch.Get().(*bytes.Buffer); body.Cap() > maxKeptBytes {
			t.Errorf("decode's pool holds a %d-byte body buffer", body.Cap())
		}
	}
}
