package service

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/gstore"
	"repro/internal/persist"
	"repro/pkg/api"
	"repro/pkg/client"
)

// logCapture collects recovery/quarantine log lines for assertions.
type logCapture struct {
	mu    sync.Mutex
	lines []string
}

func (l *logCapture) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

func (l *logCapture) contains(substr string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, line := range l.lines {
		if strings.Contains(line, substr) {
			return true
		}
	}
	return false
}

// sealedGraph is the sealed graph name as the store serves it.
func sealedGraph(s *GraphStore, name string) (*graph.Graph, error) {
	g, _, err := s.Get(name)
	return g, err
}

// assertSameGraph asserts bit-identical CSR state between two graphs.
func assertSameGraph(t *testing.T, want, got *graph.Graph) {
	t.Helper()
	if !slices.Equal(want.RawRowPtr(), got.RawRowPtr()) || !slices.Equal(want.RawAdj(), got.RawAdj()) ||
		(want.RawWeights32() == nil) != (got.RawWeights32() == nil) || !slices.Equal(want.RawWeights32(), got.RawWeights32()) ||
		(want.RawWeights64() == nil) != (got.RawWeights64() == nil) || !slices.Equal(want.RawWeights64(), got.RawWeights64()) ||
		!slices.Equal(want.Degrees(), got.Degrees()) || want.Volume() != got.Volume() {
		t.Fatalf("graphs differ: want n=%d m=%d vol=%v, got n=%d m=%d vol=%v",
			want.N(), want.M(), want.Volume(), got.N(), got.M(), got.Volume())
	}
}

// TestPersistCleanShutdownRestartIdentity is the durability contract in
// one test: load + generate + stream against a data dir, shut down
// cleanly, restart on the same dir, and assert the recovered store is
// identical — sealed graphs bit-for-bit, the streaming graph still
// streaming with every acknowledged batch, and a post-restart seal
// equal to sealing the same edges directly.
func TestPersistCleanShutdownRestartIdentity(t *testing.T) {
	dir := t.TempDir()
	var lc logCapture
	s1, err := NewGraphStore(dir, "", lc.logf, nil)
	if err != nil {
		t.Fatal(err)
	}
	ring := gen.RingOfCliques(6, 5)
	if _, err := s1.Put("ring", ring); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	er, err := gen.ErdosRenyi(120, 0.06, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Put("er", er); err != nil {
		t.Fatal(err)
	}
	info, err := s1.BeginStream("inc", 40)
	if err != nil {
		t.Fatal(err)
	}
	if info.Persistence != api.PersistWAL {
		t.Fatalf("streaming persistence = %q, want %q", info.Persistence, api.PersistWAL)
	}
	var streamed []api.StreamEdge
	for b := 0; b < 5; b++ {
		var batch []api.StreamEdge
		for i := 0; i < 15; i++ {
			batch = append(batch, api.StreamEdge{U: rng.Intn(40), V: rng.Intn(40), W: 0.25 + rng.Float64()})
		}
		if err := s1.AppendEdges("inc", batch); err != nil {
			t.Fatal(err)
		}
		streamed = append(streamed, batch...)
	}
	if err := s1.Close(); err != nil {
		t.Fatalf("clean shutdown: %v", err)
	}
	// Mutations after shutdown are refused, not silently unpersisted.
	if err := s1.AppendEdges("inc", []api.StreamEdge{{U: 0, V: 1}}); err == nil {
		t.Fatal("append after Close succeeded")
	}
	if _, err := s1.Put("late", ring); err == nil {
		t.Fatal("put after Close succeeded")
	}

	s2, err := NewGraphStore(dir, "", lc.logf, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if lc.contains("quarantined") {
		t.Fatalf("clean restart quarantined files: %v", lc.lines)
	}
	for name, want := range map[string]*graph.Graph{"ring": ring, "er": er} {
		got, err := sealedGraph(s2, name)
		if err != nil {
			t.Fatalf("recovering %q: %v", name, err)
		}
		assertSameGraph(t, want, got)
		inf, err := s2.Info(name)
		if err != nil {
			t.Fatal(err)
		}
		if inf.Persistence != api.PersistSnapshot || !inf.Sealed {
			t.Fatalf("%q recovered as %+v", name, inf)
		}
	}
	inf, err := s2.Info("inc")
	if err != nil {
		t.Fatal(err)
	}
	if inf.State != api.GraphStreaming || inf.Nodes != 40 || inf.Edges != len(streamed) {
		t.Fatalf("streaming graph recovered as %+v, want streaming n=40 m=%d", inf, len(streamed))
	}
	// The stream keeps accepting edges after recovery, and sealing it
	// equals building the same edge sequence directly.
	extra := []api.StreamEdge{{U: 38, V: 39, W: 2}}
	if err := s2.AppendEdges("inc", extra); err != nil {
		t.Fatal(err)
	}
	sealedInfo, err := s2.Seal("inc")
	if err != nil {
		t.Fatal(err)
	}
	if sealedInfo.Persistence != api.PersistSnapshot {
		t.Fatalf("sealed persistence = %q", sealedInfo.Persistence)
	}
	sealed, err := sealedGraph(s2, "inc")
	if err != nil {
		t.Fatal(err)
	}
	b := graph.NewBuilder(40)
	for _, e := range append(append([]api.StreamEdge(nil), streamed...), extra...) {
		b.AddWeightedEdge(e.U, e.V, e.W)
	}
	want, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, want, sealed)
	// Sealing retired the WAL; only snapshots remain on disk.
	if _, err := os.Stat(filepath.Join(dir, "inc.wal")); !os.IsNotExist(err) {
		t.Fatalf("WAL survived seal: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "inc.gsnap")); err != nil {
		t.Fatalf("seal snapshot missing: %v", err)
	}
}

// TestPersistThirdGenerationRecovery seals in one generation and
// re-recovers in a third, exercising snapshot-of-a-recovered-stream.
func TestPersistThirdGenerationRecovery(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewGraphStore(dir, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.BeginStream("g", 10); err != nil {
		t.Fatal(err)
	}
	if err := s1.AppendEdges("g", []api.StreamEdge{{U: 0, V: 1}, {U: 1, V: 2, W: 2}}); err != nil {
		t.Fatal(err)
	}
	s1.Close()
	s2, err := NewGraphStore(dir, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Seal("g"); err != nil {
		t.Fatal(err)
	}
	g2, err := sealedGraph(s2, "g")
	if err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3, err := NewGraphStore(dir, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	g3, err := sealedGraph(s3, "g")
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, g2, g3)
}

// TestPersistQuarantineCorruptFiles covers the three corruption paths
// of the issue checklist: a truncated snapshot, a flipped checksum
// byte, and a torn final WAL record. Each must boot cleanly with the
// damaged graph quarantined — never a boot failure — while healthy
// graphs recover untouched.
func TestPersistQuarantineCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewGraphStore(dir, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	good := gen.RingOfCliques(4, 4)
	if _, err := s1.Put("good", good); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Put("truncated", gen.Caveman(3, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Put("flipped", gen.Caveman(4, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.BeginStream("torn", 8); err != nil {
		t.Fatal(err)
	}
	if err := s1.AppendEdges("torn", []api.StreamEdge{{U: 0, V: 1}, {U: 2, V: 3}}); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// Damage the files.
	truncPath := filepath.Join(dir, "truncated.gsnap")
	data, err := os.ReadFile(truncPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(truncPath, data[:len(data)-9], 0o644); err != nil {
		t.Fatal(err)
	}
	flipPath := filepath.Join(dir, "flipped.gsnap")
	data, err = os.ReadFile(flipPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0x10 // inside the weight-section CRC
	if err := os.WriteFile(flipPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	tornPath := filepath.Join(dir, "torn.wal")
	f, err := os.OpenFile(tornPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Half a record: a full header claiming one edge, but only 11 of its
	// 24 payload bytes — the shape a kill -9 mid-append leaves behind.
	if _, err := f.Write([]byte{1, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var lc logCapture
	s2, err := NewGraphStore(dir, "", lc.logf, nil)
	if err != nil {
		t.Fatalf("boot failed instead of quarantining: %v", err)
	}
	defer s2.Close()
	g, err := sealedGraph(s2, "good")
	if err != nil {
		t.Fatalf("healthy graph lost: %v", err)
	}
	assertSameGraph(t, good, g)
	for _, name := range []string{"truncated", "flipped", "torn"} {
		if _, err := s2.Info(name); err == nil {
			t.Fatalf("corrupt graph %q recovered instead of quarantined", name)
		}
	}
	quarantined := 0
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), persist.QuarantineExt) {
			quarantined++
		}
	}
	if quarantined != 3 {
		t.Fatalf("want 3 quarantined files, found %d", quarantined)
	}
	if !lc.contains("quarantined corrupt file") {
		t.Fatalf("no quarantine log line emitted: %v", lc.lines)
	}
	// Quarantine frees the name: the graph can be re-created.
	if _, err := s2.Put("flipped", gen.Caveman(4, 3)); err != nil {
		t.Fatalf("re-creating quarantined name: %v", err)
	}
}

// TestPersistStaleWALAfterSeal simulates a crash between the seal
// snapshot landing and the WAL being retired: recovery must prefer the
// snapshot and discard the stale log.
func TestPersistStaleWALAfterSeal(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewGraphStore(dir, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.BeginStream("g", 6); err != nil {
		t.Fatal(err)
	}
	if err := s1.AppendEdges("g", []api.StreamEdge{{U: 0, V: 1}, {U: 1, V: 2}}); err != nil {
		t.Fatal(err)
	}
	// Copy the live WAL aside, seal (which removes it), then put the
	// copy back to fake the crash window.
	walPath := filepath.Join(dir, "g.wal")
	walBytes, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Seal("g"); err != nil {
		t.Fatal(err)
	}
	sealed, err := sealedGraph(s1, "g")
	if err != nil {
		t.Fatal(err)
	}
	s1.Close()
	if err := os.WriteFile(walPath, walBytes, 0o644); err != nil {
		t.Fatal(err)
	}

	var lc logCapture
	s2, err := NewGraphStore(dir, "", lc.logf, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	g, err := sealedGraph(s2, "g")
	if err != nil {
		t.Fatalf("graph not recovered sealed: %v", err)
	}
	assertSameGraph(t, sealed, g)
	if _, err := os.Stat(walPath); !os.IsNotExist(err) {
		t.Fatalf("stale WAL not removed")
	}
	if !lc.contains("stale WAL") {
		t.Fatalf("no stale-WAL log line: %v", lc.lines)
	}
}

// TestPersistDeleteRemovesFiles asserts Delete retires on-disk state so
// a restart cannot resurrect a deleted graph.
func TestPersistDeleteRemovesFiles(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewGraphStore(dir, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Put("sealed", gen.RingOfCliques(3, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.BeginStream("streamy", 4); err != nil {
		t.Fatal(err)
	}
	if err := s1.Delete("sealed"); err != nil {
		t.Fatal(err)
	}
	if err := s1.Delete("streamy"); err != nil {
		t.Fatal(err)
	}
	s1.Close()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("data dir not empty after deletes: %v", entries)
	}
	s2, err := NewGraphStore(dir, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.List(); len(got) != 0 {
		t.Fatalf("deleted graphs resurrected: %v", got)
	}
}

// TestListDeterministicallySorted locks the List ordering contract:
// sorted by name regardless of insertion order, stable across restart.
func TestListDeterministicallySorted(t *testing.T) {
	dir := t.TempDir()
	s, err := NewGraphStore(dir, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"zeta", "alpha", "mid", "beta.2", "beta.10", "Alpha"}
	for _, n := range names {
		if _, err := s.Put(n, gen.RingOfCliques(3, 3)); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"Alpha", "alpha", "beta.10", "beta.2", "mid", "zeta"}
	got := func(st *GraphStore) []string {
		var out []string
		for _, info := range st.List() {
			out = append(out, info.Name)
		}
		return out
	}
	if g := got(s); !reflect.DeepEqual(g, want) {
		t.Fatalf("List order %v, want %v", g, want)
	}
	s.Close()
	s2, err := NewGraphStore(dir, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if g := got(s2); !reflect.DeepEqual(g, want) {
		t.Fatalf("List order after restart %v, want %v", g, want)
	}
}

// TestPersistTrickyNamesSurviveRestart locks the recovery scan against
// valid graph names that resemble the data dir's own bookkeeping
// suffixes (quarantine, temp, the live extensions themselves).
func TestPersistTrickyNamesSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewGraphStore(dir, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"a.corrupt", "b.tmp-1", "c.gsnap", "d.wal"}
	for _, n := range names {
		if _, err := s1.Put(n, gen.RingOfCliques(3, 3)); err != nil {
			t.Fatalf("put %q: %v", n, err)
		}
	}
	if _, err := s1.BeginStream("e.corrupt", 4); err != nil {
		t.Fatal(err)
	}
	s1.Close()
	var lc logCapture
	s2, err := NewGraphStore(dir, "", lc.logf, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for _, n := range names {
		if _, _, err := s2.Get(n); err != nil {
			t.Fatalf("graph %q not recovered: %v", n, err)
		}
	}
	if info, err := s2.Info("e.corrupt"); err != nil || info.State != api.GraphStreaming {
		t.Fatalf("streaming graph \"e.corrupt\" not recovered: %+v %v", info, err)
	}
	if lc.contains("quarantined") {
		t.Fatalf("healthy files quarantined: %v", lc.lines)
	}
}

// TestServerPersistenceOverHTTP drives the durable server through the
// public SDK: load, stream, restart on the same data dir, verify state
// and persistence fields, then export/import round trip.
func TestServerPersistenceOverHTTP(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	srv1, ts1, c1 := testServer(t, Config{DataDir: dir})
	if _, err := c1.Graphs.Generate(ctx, "gen", api.GenerateRequest{Family: "ring_of_cliques", K: 5, CliqueN: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Graphs.Stream(ctx, "inc", 12); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Graphs.AppendEdges(ctx, "inc", []api.StreamEdge{{U: 0, V: 1}, {U: 1, V: 2, W: 0.5}}); err != nil {
		t.Fatal(err)
	}
	info, err := c1.Graphs.Get(ctx, "gen")
	if err != nil {
		t.Fatal(err)
	}
	if info.Persistence != api.PersistSnapshot {
		t.Fatalf("gen persistence = %q", info.Persistence)
	}
	genGraph, err := sealedGraph(srv1.Store(), "gen")
	if err != nil {
		t.Fatal(err)
	}
	// Clean shutdown, then a second server on the same directory. Note
	// testServer pre-loads "ring" into every store, which also persists.
	ts1.Close()
	srv1.Close()

	srv2, _, c2 := testServer(t, Config{DataDir: dir})
	list, err := c2.Graphs.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, g := range list {
		names = append(names, g.Name)
	}
	if !reflect.DeepEqual(names, []string{"gen", "inc", "ring"}) {
		t.Fatalf("recovered graphs %v", names)
	}
	inc, err := c2.Graphs.Get(ctx, "inc")
	if err != nil {
		t.Fatal(err)
	}
	if inc.State != api.GraphStreaming || inc.Edges != 2 || inc.Persistence != api.PersistWAL {
		t.Fatalf("inc recovered as %+v", inc)
	}
	recovered, err := sealedGraph(srv2.Store(), "gen")
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, genGraph, recovered)

	// Export → import round trip through the octet-stream endpoints.
	var snap bytes.Buffer
	if _, err := c2.Graphs.Export(ctx, "gen", &snap); err != nil {
		t.Fatal(err)
	}
	imported, err := c2.Graphs.Import(ctx, "gen2", bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !imported.Sealed || imported.Nodes != info.Nodes || imported.Edges != info.Edges {
		t.Fatalf("imported info %+v, want clone of %+v", imported, info)
	}
	g2, err := sealedGraph(srv2.Store(), "gen2")
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, genGraph, g2)
	// A re-export of the clone is byte-identical: one canonical encoding.
	var snap2 bytes.Buffer
	if _, err := c2.Graphs.Export(ctx, "gen2", &snap2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap.Bytes(), snap2.Bytes()) {
		t.Fatal("export bytes differ between original and imported clone")
	}
	// Corrupt uploads are rejected with invalid_argument, not stored.
	bad := append([]byte(nil), snap.Bytes()...)
	bad[30] ^= 0xff
	_, err = c2.Graphs.Import(ctx, "gen3", bytes.NewReader(bad))
	wantAPIErr(t, err, api.CodeInvalidArgument)
	_, err = c2.Graphs.Get(ctx, "gen3")
	wantAPIErr(t, err, api.CodeNotFound)
	// Export of a streaming graph is a conflict.
	_, err = c2.Graphs.Export(ctx, "inc", io.Discard)
	wantAPIErr(t, err, api.CodeConflict)
}

// TestExportIsTheSnapshotFile: on a durable mmap daemon, the export of
// a graph, generated or streamed and sealed, is its snapshot file byte
// for byte, written from the served mapping.
func TestExportIsTheSnapshotFile(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	_, _, c := testServer(t, Config{DataDir: dir, Backend: string(gstore.KindMmap)}) // Puts "ring"
	if _, err := c.Graphs.Generate(ctx, "gen", api.GenerateRequest{Family: "kronecker", Levels: 9, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Graphs.Stream(ctx, "inc", 40); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Graphs.AppendEdges(ctx, "inc", []api.StreamEdge{{U: 0, V: 1}, {U: 3, V: 39, W: 0.3}, {U: 1, V: 0, W: 2}, {U: 7, V: 7}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Graphs.Seal(ctx, "inc"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"gen", "inc", "ring"} {
		info, err := c.Graphs.Get(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		if info.Backend != api.BackendMmap {
			t.Fatalf("%s served from %q, want mmap", name, info.Backend)
		}
		var got bytes.Buffer
		if _, err := c.Graphs.Export(ctx, name, &got); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(dir, name+persist.SnapshotExt))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: export of %d bytes differs from its %d-byte snapshot file", name, got.Len(), len(want))
		}
	}
}

// TestNodeCapRefusedAtEveryIngress asks for one node more than
// graph.MaxEdgeListNodes through a stream request and through an edge
// list's "# nodes" header. Both must answer 400 invalid_argument before
// anything is stored or logged, rather than reach an allocation of
// gigabytes at seal or load time.
func TestNodeCapRefusedAtEveryIngress(t *testing.T) {
	dir := t.TempDir()
	srv, ts, _ := testServer(t, Config{DataDir: dir})
	over := graph.MaxEdgeListNodes + 1
	for _, req := range []struct{ path, contentType, body string }{
		{"/v1/graphs/big-stream/stream", "application/json", fmt.Sprintf(`{"nodes":%d}`, over)},
		{"/v1/graphs/big-list", "text/plain", fmt.Sprintf("# nodes %d\n0 1\n", over)},
	} {
		resp, err := http.Post(ts.URL+req.path, req.contentType, strings.NewReader(req.body))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), `"invalid_argument"`) {
			t.Errorf("POST %s: %d %s, want 400 invalid_argument", req.path, resp.StatusCode, body)
		}
	}
	for _, name := range []string{"big-stream", "big-list"} {
		if _, err := srv.Store().Info(name); err == nil {
			t.Errorf("graph %q was stored", name)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "ring"+persist.SnapshotExt {
			t.Errorf("refused requests left %s in the data dir", e.Name())
		}
	}
}

// TestEveryIngressServesCompact pins the serving contract: however a
// graph enters a store without an mmap default — Put, generate, an
// edge-list load, a snapshot import, a sealed stream, or recovery on a
// data dir — it is served compact. heap is no serving backend, so
// ?backend=heap and Config{Backend: "heap"} are refused.
func TestEveryIngressServesCompact(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	srv, ts, c := testServer(t, Config{DataDir: dir}) // Puts "ring"
	if _, err := c.Graphs.Generate(ctx, "gen", api.GenerateRequest{Family: "ring_of_cliques", K: 5, CliqueN: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Graphs.Load(ctx, "load", strings.NewReader("0 1\n1 2 0.5\n2 0\n")); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if _, err := c.Graphs.Export(ctx, "gen", &snap); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Graphs.Import(ctx, "imp", &snap); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Graphs.Stream(ctx, "inc", 6); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Graphs.AppendEdges(ctx, "inc", []api.StreamEdge{{U: 0, V: 1}, {U: 4, V: 5, W: 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Graphs.Seal(ctx, "inc"); err != nil {
		t.Fatal(err)
	}
	names := []string{"gen", "imp", "inc", "load", "ring"}
	assertServedCompact := func(label string, list []api.GraphInfo) {
		t.Helper()
		var got []string
		for _, info := range list {
			got = append(got, info.Name)
			if info.Backend != api.BackendCompact {
				t.Errorf("%s: %q served from %q, want compact", label, info.Name, info.Backend)
			}
		}
		if !reflect.DeepEqual(got, names) {
			t.Fatalf("%s: graphs %v, want %v", label, got, names)
		}
	}
	assertServedCompact("ingress", srv.Store().List())

	_, err := c.Graphs.Generate(ctx, "h", api.GenerateRequest{Family: "ring_of_cliques", K: 3, CliqueN: 3}, client.WithBackend("heap"))
	if ae := wantAPIErr(t, err, api.CodeInvalidArgument); ae.Status != http.StatusBadRequest {
		t.Fatalf("?backend=heap answered %d, want 400", ae.Status)
	}
	if _, err := NewServer(Config{Backend: "heap"}); err == nil {
		t.Fatal(`NewServer accepted Config{Backend: "heap"}`)
	}

	ts.Close()
	srv.Close()
	srv2, _, _ := testServer(t, Config{DataDir: dir})
	assertServedCompact("recovery", srv2.Store().List())
}
