package service

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/gen"
	"repro/internal/gstore"
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
// and applying a batch allocates nothing but a new builder chunk every
// 1 024 edges.
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

// TestSealAllocatesOneCompactGraph bounds the bytes GraphStore.Seal
// allocates for a stream of ingest_cycle's shape, 8 batches of 256
// distinct unit edges on 4 096 nodes, sealed on a durable mmap store.
// The compact graph the builder emits is nearly all of it: the gathered
// edges (32 kB), row pointers (32 kB), adjacency (16 kB) and degrees
// (32 kB). A heap graph or an encode buffer on the way would add at
// least 64 kB and fail the bound.
func TestSealAllocatesOneCompactGraph(t *testing.T) {
	const nodes, batches, batchLen, limit = 4096, 8, 256, 160_000
	s, err := NewGraphStore(t.TempDir(), gstore.KindMmap, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	least := uint64(math.MaxUint64)
	for r := range 3 {
		name := fmt.Sprintf("g%d", r)
		if _, err := s.BeginStream(name, nodes); err != nil {
			t.Fatal(err)
		}
		for b := range batches {
			batch := make([]api.StreamEdge, batchLen)
			for i := range batch {
				j := b*batchLen + i
				batch[i] = api.StreamEdge{U: j, V: j + nodes/2}
			}
			if err := s.AppendEdges(name, batch); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		info, err := s.Seal(name)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if info.Backend != api.BackendMmap || info.Edges != batches*batchLen {
			t.Fatalf("sealed %+v, want %d edges on mmap", info, batches*batchLen)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > limit {
		t.Errorf("Seal allocated %d bytes, want at most %d", least, limit)
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

// TestResealedGraphReusesWorkspaces: a graph sealed after another of
// its size class was queried and deleted borrows that graph's warm
// workspace, so its first ppr allocates its reply and none of the
// workspace's 32 B per node.
func TestResealedGraphReusesWorkspaces(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool does not retain workspaces under the race detector")
	}
	// One P and no collection: the workspace the first graph's query
	// puts back is the one the second graph's query gets.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const nodes, limit = 4096, 32_000
	hg, err := gen.ForestFire(gen.ForestFireConfig{N: nodes, FwdProb: 0.35, Ambs: 1}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewGraphStore("", "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	req := api.PPRRequest{Seeds: []int{7}}
	req.Normalize()
	seal := func(name string) {
		if _, err := s.Put(name, gstore.Wrap(hg)); err != nil {
			t.Fatal(err)
		}
	}
	query := func(name string) uint64 {
		g, _, err := s.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err = execPPR(context.Background(), g, req, false)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	seal("first")
	query("first")
	if err := s.Delete("first"); err != nil {
		t.Fatal(err)
	}
	seal("second")
	got := query("second")
	if got >= limit {
		t.Fatalf("the resealed graph's first ppr allocated %d bytes, want under %d", got, limit)
	}
	t.Logf("the resealed graph's first ppr allocated %d bytes", got)
}
