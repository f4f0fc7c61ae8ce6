// Package service is the serving layer over the repository's graph
// algorithms: a concurrency-safe store of named immutable graphs with
// optional on-disk durability (binary CSR snapshots + streaming WALs,
// internal/persist), one query pipeline (pipeline.go: LRU result cache,
// in-flight table, batches) for the strongly-local synchronous queries
// (PPR push, Nibble, heat kernel, sweep cuts), a bounded worker pool for the expensive global
// jobs (NCP profiles, multilevel partitions, Figure-1 experiments), and
// the metrics that a long-running daemon needs. cmd/graphd wires it to
// an HTTP listener.
//
// The design follows §3.3 of the paper: the approximate diffusion
// primitives are *operational* — budgeted, strongly local, and therefore
// cheap enough to answer interactively — while the global NCP machinery
// is batch work that belongs on an async queue. Results are
// deterministic for a given BaseSeed, so caching job results is sound.
package service

import (
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/gstore"
	"repro/internal/kernel"
	"repro/internal/persist"
	"repro/pkg/api"
)

// StoreErrorKind classifies store failures so handlers can map them to
// HTTP status codes without string matching.
type StoreErrorKind int

const (
	// ErrNotFound: the named graph does not exist.
	ErrNotFound StoreErrorKind = iota
	// ErrConflict: the operation conflicts with the graph's state
	// (already exists, already sealed, still streaming).
	ErrConflict
	// ErrBadInput: the caller's data is invalid.
	ErrBadInput
	// ErrInternal: the store itself failed (persistence I/O error).
	ErrInternal
	// ErrUnavailable: the store is shutting down; retry against a live
	// instance.
	ErrUnavailable
)

// StoreError is the typed error returned by GraphStore operations.
type StoreError struct {
	Kind StoreErrorKind
	Msg  string
}

func (e *StoreError) Error() string { return e.Msg }

func storeErrf(kind StoreErrorKind, format string, args ...any) *StoreError {
	return &StoreError{Kind: kind, Msg: fmt.Sprintf(format, args...)}
}

// entry is one named graph: either sealed (g != nil, immutable, safe to
// read without locks) or still streaming (b != nil, guarded by mu).
type entry struct {
	id      uint64 // unique per stored graph; part of every cache key
	mu      sync.Mutex
	g       gstore.Graph // sealed read view (heap, compact or mmap backend)
	hg      *graph.Graph // lazy heap materialization for dense/batch consumers
	b       *graph.Builder
	pool    *kernel.Pool // per-graph diffusion workspaces; set when sealed
	nNodes  int
	nEdges  int                  // edges accepted while streaming
	wal     *persist.WAL         // open log while streaming with a data dir
	persist api.GraphPersistence // durability of the current state
}

// seal installs the immutable graph on the entry (caller holds e.mu)
// together with its workspace pool, so every strongly-local query on
// this graph reuses the same kernel scratch instead of allocating.
func (e *entry) seal(g gstore.Graph) {
	e.g = g
	if h, ok := g.(gstore.Heap); ok {
		e.hg = h.Unwrap()
	}
	e.pool = kernel.NewPool(g.N())
}

// GraphStore is a concurrency-safe registry of named graphs. Sealed
// graphs are immutable CSR structures shared by all readers; streaming
// graphs accumulate edges under a per-entry lock until sealed. With a
// data directory attached, every mutation is made durable before it is
// acknowledged: sealed graphs as binary snapshots, streaming graphs as
// fsync'd write-ahead-log batches.
type GraphStore struct {
	mu      sync.RWMutex
	graphs  map[string]*entry
	nextID  atomic.Uint64
	closed  atomic.Bool
	dir     *persist.Dir // nil: in-memory only
	backend gstore.Kind  // default serving backend for sealed graphs
	logf    func(format string, args ...any)
}

// NewGraphStore returns an empty, in-memory store serving heap graphs.
func NewGraphStore() *GraphStore {
	return &GraphStore{graphs: make(map[string]*entry), backend: gstore.KindHeap, logf: func(string, ...any) {}}
}

// SetDefaultBackend changes the backend new sealed graphs are served
// from when no per-graph override is given. The mmap backend needs a
// data directory to map snapshots from.
func (s *GraphStore) SetDefaultBackend(kind gstore.Kind) error {
	if kind == gstore.KindMmap && s.dir == nil {
		return storeErrf(ErrBadInput, "backend %q requires a data directory", kind)
	}
	s.backend = kind
	return nil
}

// NewPersistentGraphStore opens (creating if needed) dataDir and
// recovers its contents: every valid snapshot loads as a sealed graph
// served from the given default backend, every write-ahead log without
// a snapshot replays back into streaming state, and corrupt files are
// quarantined with a log line instead of failing boot. logf receives
// one line per recovery event (nil discards them).
func NewPersistentGraphStore(dataDir string, backend gstore.Kind, logf func(format string, args ...any)) (*GraphStore, error) {
	return NewPersistentGraphStoreObserved(dataDir, backend, logf, nil)
}

// NewPersistentGraphStoreObserved is NewPersistentGraphStore with a
// durability-telemetry sink attached before recovery runs, so boot-time
// WAL replays and snapshot loads are observed too. A nil observer
// keeps every persistence operation free of clock reads.
func NewPersistentGraphStoreObserved(dataDir string, backend gstore.Kind, logf func(format string, args ...any), obs persist.Observer) (*GraphStore, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if backend == "" {
		backend = gstore.KindHeap
	}
	dir, err := persist.OpenDir(dataDir)
	if err != nil {
		return nil, err
	}
	if obs != nil {
		dir.SetObserver(obs)
	}
	s := &GraphStore{graphs: make(map[string]*entry), dir: dir, backend: backend, logf: logf}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

// recover scans the data directory and rebuilds the in-memory registry.
// Only directory-level failures (unreadable dir) abort boot; per-file
// corruption quarantines that file and continues.
func (s *GraphStore) recover() error {
	snaps, wals, err := s.dir.Scan()
	if err != nil {
		return err
	}
	for _, name := range snaps {
		if err := validName(name); err != nil {
			s.quarantine(s.dir.SnapshotPath(name), fmt.Errorf("invalid graph name: %w", err))
			continue
		}
		g, err := s.openSealed(name, s.backend)
		if err != nil {
			s.quarantine(s.dir.SnapshotPath(name), err)
			continue
		}
		e := &entry{id: s.nextID.Add(1), persist: api.PersistSnapshot}
		e.seal(g)
		s.graphs[name] = e
		s.logf("persist: recovered sealed graph %q from snapshot (n=%d m=%d backend=%s)",
			name, g.N(), g.M(), g.Backend())
	}
	for _, name := range wals {
		if _, ok := s.graphs[name]; ok {
			// A snapshot and a WAL for the same name means the process
			// died between writing the seal snapshot and removing the
			// log. The snapshot is the newer, complete state; the stale
			// log is discarded.
			s.removeStaleWAL(name)
			continue
		}
		if err := validName(name); err != nil {
			s.quarantine(s.dir.WALPath(name), fmt.Errorf("invalid graph name: %w", err))
			continue
		}
		w, nodes, batches, err := s.dir.OpenWAL(name)
		if err != nil {
			s.quarantine(s.dir.WALPath(name), err)
			continue
		}
		b := graph.NewBuilder(nodes)
		edges := 0
		replayErr := func() error {
			for _, batch := range batches {
				for _, e := range batch {
					if e.U < 0 || e.U >= nodes || e.V < 0 || e.V >= nodes {
						return fmt.Errorf("replayed edge (%d,%d) out of range [0,%d)", e.U, e.V, nodes)
					}
					if e.W <= 0 || math.IsNaN(e.W) || math.IsInf(e.W, 0) {
						return fmt.Errorf("replayed edge (%d,%d) has invalid weight %v", e.U, e.V, e.W)
					}
					b.AddWeightedEdge(e.U, e.V, e.W)
				}
				edges += len(batch)
			}
			return nil
		}()
		if replayErr != nil {
			w.Close()
			s.quarantine(s.dir.WALPath(name), replayErr)
			continue
		}
		s.graphs[name] = &entry{
			id: s.nextID.Add(1), b: b, nNodes: nodes, nEdges: edges,
			wal: w, persist: api.PersistWAL,
		}
		s.logf("persist: replayed WAL for streaming graph %q (%d nodes, %d edges in %d batches)",
			name, nodes, edges, len(batches))
	}
	return nil
}

// openSealed loads the named graph's on-disk snapshot on the requested
// backend, downgrading with a log line when the snapshot cannot serve
// it: mmap falls back to compact (v1 snapshot, unmappable platform),
// compact falls back to heap (graph too large for 32-bit node ids).
func (s *GraphStore) openSealed(name string, kind gstore.Kind) (gstore.Graph, error) {
	switch kind {
	case gstore.KindMmap:
		c, err := s.dir.MapSnapshot(name)
		if err == nil {
			return c, nil
		}
		if !errors.Is(err, persist.ErrNotMappable) {
			return nil, err
		}
		s.logf("persist: graph %q: %v; serving compact instead", name, err)
		fallthrough
	case gstore.KindCompact:
		c, cerr := s.dir.LoadCompactSnapshot(name)
		if cerr == nil {
			return c, nil
		}
		g, herr := s.dir.LoadSnapshot(name)
		if herr != nil {
			return nil, cerr
		}
		s.logf("persist: graph %q: compact load failed (%v); serving heap instead", name, cerr)
		return gstore.Wrap(g), nil
	default:
		g, err := s.dir.LoadSnapshot(name)
		if err != nil {
			return nil, err
		}
		return gstore.Wrap(g), nil
	}
}

// adopt converts a freshly built heap graph to its serving backend.
// When the store is persistent, the graph's snapshot is already on
// disk (Put and Seal write it before sealing), which is what the mmap
// backend maps. Conversion failures downgrade with a log line rather
// than failing the store operation — the data is intact either way.
func (s *GraphStore) adopt(name string, g *graph.Graph, kind gstore.Kind) gstore.Graph {
	switch kind {
	case gstore.KindMmap:
		c, err := s.dir.MapSnapshot(name)
		if err == nil {
			return c
		}
		s.logf("persist: graph %q: %v; serving compact instead", name, err)
		fallthrough
	case gstore.KindCompact:
		c, err := gstore.NewCompact(g)
		if err == nil {
			return c
		}
		s.logf("store: graph %q: %v; serving heap instead", name, err)
		fallthrough
	default:
		return gstore.Wrap(g)
	}
}

// removeStaleWAL deletes a WAL that lost the race with its own seal
// snapshot.
func (s *GraphStore) removeStaleWAL(name string) {
	if err := removeFile(s.dir.WALPath(name)); err != nil {
		s.logf("persist: removing stale WAL for sealed graph %q: %v", name, err)
		return
	}
	s.logf("persist: removed stale WAL for sealed graph %q (snapshot wins)", name)
}

// quarantine sets a corrupt file aside and logs the clear one-line
// diagnostic the operator will grep for.
func (s *GraphStore) quarantine(path string, cause error) {
	dst, qerr := s.dir.Quarantine(path)
	if qerr != nil {
		s.logf("persist: QUARANTINE FAILED for %s (%v): %v", path, cause, qerr)
		return
	}
	s.logf("persist: quarantined corrupt file %s -> %s: %v", path, dst, cause)
}

// PersistCounters exposes the persistence event counters for /metrics;
// nil when the store is in-memory only.
func (s *GraphStore) PersistCounters() *persist.Counters {
	if s.dir == nil {
		return nil
	}
	return s.dir.Counters()
}

// reserve inserts a new entry for name with its mutex already held, so
// the caller can finish (possibly slow) persistence work without
// blocking the rest of the store; readers of this one name wait on the
// entry lock. The caller must either commit (unlock) or abort.
func (s *GraphStore) reserve(name string) (*entry, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return nil, storeErrf(ErrUnavailable, "graph store is shut down")
	}
	if _, ok := s.graphs[name]; ok {
		return nil, storeErrf(ErrConflict, "graph %q already exists", name)
	}
	e := &entry{id: s.nextID.Add(1)}
	e.mu.Lock()
	s.graphs[name] = e
	return e, nil
}

// abortReserve undoes reserve after a failed persistence step.
func (s *GraphStore) abortReserve(name string, e *entry) {
	s.mu.Lock()
	delete(s.graphs, name)
	s.mu.Unlock()
	e.mu.Unlock()
}

// Put registers a sealed graph under name, served from the store's
// default backend. It fails with ErrConflict if the name is taken. With
// a data directory attached the snapshot is written (atomically) before
// the graph becomes visible as sealed.
func (s *GraphStore) Put(name string, g *graph.Graph) (api.GraphInfo, error) {
	return s.PutWithBackend(name, g, "")
}

// PutWithBackend is Put with a per-graph serving-backend override; the
// empty kind means the store default.
func (s *GraphStore) PutWithBackend(name string, g *graph.Graph, kind gstore.Kind) (api.GraphInfo, error) {
	if kind == "" {
		kind = s.backend
	}
	if kind == gstore.KindMmap && s.dir == nil {
		return api.GraphInfo{}, storeErrf(ErrBadInput, "backend %q requires a data directory", kind)
	}
	e, err := s.reserve(name)
	if err != nil {
		return api.GraphInfo{}, err
	}
	pstate := api.PersistNone
	if s.dir != nil {
		if err := s.dir.SaveSnapshot(name, g); err != nil {
			s.abortReserve(name, e)
			return api.GraphInfo{}, storeErrf(ErrInternal, "persisting graph %q: %v", name, err)
		}
		pstate = api.PersistSnapshot
	}
	e.seal(s.adopt(name, g, kind))
	e.persist = pstate
	info := s.infoLocked(name, e)
	e.mu.Unlock()
	return info, nil
}

// Get returns the sealed graph's read view under name together with
// its store id (the cache-key component that distinguishes same-named
// graphs across delete/re-create cycles). Unsealed graphs report
// ErrConflict.
func (s *GraphStore) Get(name string) (gstore.Graph, uint64, error) {
	g, id, _, err := s.GetForQuery(name)
	return g, id, err
}

// GetHeap returns the sealed graph as a heap *graph.Graph, the form the
// dense diffusions, batch jobs and snapshot export consume. For compact
// and mmap backends the first call materializes (copies) the graph into
// the heap and caches it on the entry; heap-backed graphs return the
// stored graph directly.
func (s *GraphStore) GetHeap(name string) (*graph.Graph, uint64, error) {
	e, err := s.lock(name)
	if err != nil {
		return nil, 0, err
	}
	defer e.mu.Unlock()
	if e.g == nil {
		return nil, 0, storeErrf(ErrConflict, "graph %q is still streaming; seal it first", name)
	}
	if e.hg == nil {
		hg, err := gstore.Materialize(e.g)
		if err != nil {
			return nil, 0, storeErrf(ErrInternal, "materializing graph %q: %v", name, err)
		}
		e.hg = hg
	}
	return e.hg, e.id, nil
}

// GetForQuery is Get plus the graph's workspace pool, the form the
// synchronous query path uses so every request borrows (and returns)
// pooled kernel scratch instead of allocating sparse vectors.
func (s *GraphStore) GetForQuery(name string) (gstore.Graph, uint64, *kernel.Pool, error) {
	e, err := s.lock(name)
	if err != nil {
		return nil, 0, nil, err
	}
	g, pool := e.g, e.pool
	e.mu.Unlock()
	if g == nil {
		return nil, 0, nil, storeErrf(ErrConflict, "graph %q is still streaming; seal it first", name)
	}
	return g, e.id, pool, nil
}

// lock returns the entry under name with its mutex held.
func (s *GraphStore) lock(name string) (*entry, error) {
	s.mu.RLock()
	e, ok := s.graphs[name]
	s.mu.RUnlock()
	if !ok {
		return nil, storeErrf(ErrNotFound, "graph %q not found", name)
	}
	e.mu.Lock()
	return e, nil
}

// Info returns the descriptive record for the named graph, sealed or
// streaming.
func (s *GraphStore) Info(name string) (api.GraphInfo, error) {
	e, err := s.lock(name)
	if err != nil {
		return api.GraphInfo{}, err
	}
	defer e.mu.Unlock()
	return s.infoLocked(name, e), nil
}

// infoLocked builds the GraphInfo for an entry whose mutex is held.
func (s *GraphStore) infoLocked(name string, e *entry) api.GraphInfo {
	info := api.GraphInfo{Name: name, State: api.GraphStreaming, Persistence: e.persist}
	if info.Persistence == "" {
		info.Persistence = api.PersistNone
	}
	if e.g != nil {
		info.State = api.GraphSealed
		info.Sealed = true
		info.Nodes = e.g.N()
		info.Edges = e.g.M()
		info.Volume = e.g.Volume()
		info.Backend = api.GraphBackend(e.g.Backend())
	} else {
		info.Nodes = e.nNodes
		info.Edges = e.nEdges
	}
	return info
}

// Delete removes the named graph (sealed or streaming) and, when a data
// directory is attached, its on-disk artifacts. The files are removed
// while the entry is still registered (under its lock), so a concurrent
// re-create of the same name cannot have its fresh snapshot deleted out
// from under it.
func (s *GraphStore) Delete(name string) error {
	e, err := s.lock(name)
	if err != nil {
		return err
	}
	if e.wal != nil {
		if err := e.wal.Close(); err != nil {
			s.logf("persist: closing WAL of deleted graph %q: %v", name, err)
		}
		e.wal = nil
	}
	if s.dir != nil {
		if err := s.dir.Remove(name); err != nil {
			s.logf("persist: removing files of deleted graph %q: %v", name, err)
		}
	}
	// Deliberately NOT closing e.g here: a query that fetched the graph
	// before this delete may still be walking an mmap-backed adjacency,
	// and an eager munmap under it would be a segfault. Dropping the
	// store's reference is enough — the snapshot file was unlinked
	// above, and once the last in-flight query releases the graph the
	// Compact's finalizer unmaps it (gstore.NewCompactFromParts), so a
	// deleted graph never pins its mapping past the next collection.
	// Unregister only this entry; a concurrent delete/re-create cycle
	// may already have replaced it.
	s.mu.Lock()
	if cur, ok := s.graphs[name]; ok && cur == e {
		delete(s.graphs, name)
	}
	s.mu.Unlock()
	e.mu.Unlock()
	return nil
}

// List returns info for every stored graph, deterministically sorted by
// name (the stable ordering graphctl and any future pagination rely on).
func (s *GraphStore) List() []api.GraphInfo {
	s.mu.RLock()
	entries := make(map[string]*entry, len(s.graphs))
	for name, e := range s.graphs {
		entries[name] = e
	}
	s.mu.RUnlock()
	out := make([]api.GraphInfo, 0, len(entries))
	for name, e := range entries {
		e.mu.Lock()
		out = append(out, s.infoLocked(name, e))
		e.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// BeginStream creates an unsealed graph on n nodes that accumulates
// edges via AppendEdges until Seal snapshots it into immutable CSR form.
// With a data directory attached, a write-ahead log is created first so
// the stream survives a crash from its very first batch.
func (s *GraphStore) BeginStream(name string, n int) (api.GraphInfo, error) {
	if n <= 0 {
		return api.GraphInfo{}, storeErrf(ErrBadInput, "stream graph needs nodes > 0, got %d", n)
	}
	e, err := s.reserve(name)
	if err != nil {
		return api.GraphInfo{}, err
	}
	if s.dir != nil {
		w, err := s.dir.CreateWAL(name, n)
		if err != nil {
			s.abortReserve(name, e)
			return api.GraphInfo{}, storeErrf(ErrInternal, "creating WAL for %q: %v", name, err)
		}
		e.wal = w
		e.persist = api.PersistWAL
	}
	e.b = graph.NewBuilder(n)
	e.nNodes = n
	info := s.infoLocked(name, e)
	e.mu.Unlock()
	return info, nil
}

// AppendEdges adds a batch of edges to an unsealed graph. Self-loops are
// ignored (matching graph.Builder); invalid endpoints or weights fail
// the whole batch atomically before any edge is applied. With a data
// directory attached, the batch is fsync'd to the graph's write-ahead
// log before it is applied — an acknowledged batch is durable.
func (s *GraphStore) AppendEdges(name string, edges []api.StreamEdge) error {
	e, err := s.lock(name)
	if err != nil {
		return err
	}
	defer e.mu.Unlock()
	// Checked under the entry lock: Close sets the flag before it takes
	// e.mu to retire the WAL, so a batch that passes here still has an
	// open WAL to land in — an acknowledged batch is never unlogged.
	if s.closed.Load() {
		return storeErrf(ErrUnavailable, "graph store is shut down")
	}
	if e.b == nil {
		return storeErrf(ErrConflict, "graph %q is sealed; cannot append edges", name)
	}
	for i, ed := range edges {
		w := ed.W
		if w == 0 {
			w = 1
		}
		if ed.U < 0 || ed.U >= e.nNodes || ed.V < 0 || ed.V >= e.nNodes {
			return storeErrf(ErrBadInput, "edge %d (%d,%d) out of range [0,%d)", i, ed.U, ed.V, e.nNodes)
		}
		if w < 0 {
			return storeErrf(ErrBadInput, "edge %d (%d,%d) has negative weight %g", i, ed.U, ed.V, w)
		}
	}
	if e.wal != nil {
		batch := make([]persist.Edge, len(edges))
		for i, ed := range edges {
			w := ed.W
			if w == 0 {
				w = 1
			}
			batch[i] = persist.Edge{U: ed.U, V: ed.V, W: w}
		}
		if err := e.wal.AppendBatch(batch); err != nil {
			return storeErrf(ErrInternal, "logging edge batch for %q: %v", name, err)
		}
		if c := s.PersistCounters(); c != nil {
			c.WALAppends.Add(1)
		}
	}
	for _, ed := range edges {
		w := ed.W
		if w == 0 {
			w = 1
		}
		e.b.AddWeightedEdge(ed.U, ed.V, w)
	}
	e.nEdges += len(edges)
	return nil
}

// Seal snapshots a streaming graph into its immutable CSR form, after
// which it is queryable and frozen. With a data directory attached, the
// binary snapshot is written before the write-ahead log is retired; a
// crash between the two leaves both files, and recovery lets the
// snapshot win.
func (s *GraphStore) Seal(name string) (api.GraphInfo, error) {
	e, err := s.lock(name)
	if err != nil {
		return api.GraphInfo{}, err
	}
	defer e.mu.Unlock()
	if s.closed.Load() {
		return api.GraphInfo{}, storeErrf(ErrUnavailable, "graph store is shut down")
	}
	if e.b == nil {
		return api.GraphInfo{}, storeErrf(ErrConflict, "graph %q is already sealed", name)
	}
	hg, err := e.b.Build()
	if err != nil {
		return api.GraphInfo{}, storeErrf(ErrBadInput, "sealing %q: %v", name, err)
	}
	if s.dir != nil {
		if err := s.dir.SaveSnapshot(name, hg); err != nil {
			// The stream stays intact (builder and WAL untouched): the
			// caller can retry the seal once the I/O problem clears.
			return api.GraphInfo{}, storeErrf(ErrInternal, "persisting sealed graph %q: %v", name, err)
		}
		if e.wal != nil {
			if err := e.wal.Close(); err != nil {
				s.logf("persist: closing WAL of sealed graph %q: %v", name, err)
			}
			e.wal = nil
		}
		if err := removeFile(s.dir.WALPath(name)); err != nil {
			s.logf("persist: removing WAL of sealed graph %q: %v", name, err)
		}
		e.persist = api.PersistSnapshot
	}
	e.seal(s.adopt(name, hg, s.backend))
	e.b = nil
	return s.infoLocked(name, e), nil
}

// Close flushes and closes every open write-ahead log and marks the
// store as shut down; subsequent mutations fail with ErrUnavailable. A
// clean Close followed by a restart on the same data directory replays
// to the identical store state.
func (s *GraphStore) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	s.mu.Lock()
	entries := make(map[string]*entry, len(s.graphs))
	for name, e := range s.graphs {
		entries[name] = e
	}
	s.mu.Unlock()
	var firstErr error
	for name, e := range entries {
		e.mu.Lock()
		if e.wal != nil {
			if err := e.wal.Close(); err != nil {
				s.logf("persist: closing WAL of %q on shutdown: %v", name, err)
				if firstErr == nil {
					firstErr = err
				}
			}
			e.wal = nil
		}
		// Release mmap-backed graphs so shutdown leaves no dangling
		// mappings. The caller must have stopped every reader first: a
		// stopped listener is not enough (query flights outlive their
		// handlers), which is why Server.Close drains them before this.
		if e.g != nil {
			if err := gstore.Close(e.g); err != nil {
				s.logf("store: closing backend of %q on shutdown: %v", name, err)
				if firstErr == nil {
					firstErr = err
				}
			}
		}
		e.mu.Unlock()
	}
	return firstErr
}

// removeFile deletes a file, treating "already gone" as success.
func removeFile(path string) error {
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

func validName(name string) error {
	if name == "" || len(name) > 128 {
		return storeErrf(ErrBadInput, "graph name must be 1-128 characters")
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return storeErrf(ErrBadInput, "graph name %q contains invalid character %q", name, r)
		}
	}
	return nil
}
