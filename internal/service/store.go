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
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/gstore"
	"repro/internal/persist"
	"repro/pkg/api"
)

// entry is one named graph: either sealed (g != nil, immutable, safe to
// read without locks) or still streaming (b != nil, guarded by mu).
type entry struct {
	id     uint64 // unique per stored graph; part of every cache key
	mu     sync.Mutex
	g      gstore.Graph // sealed read view (compact or mmap backend)
	b      *graph.Builder
	nNodes int
	nEdges int            // edges accepted while streaming
	wal    *persist.WAL   // open log while streaming with a data dir
	batch  []persist.Edge // AppendEdges' scratch, kept while small
}

// maxKeptBytes bounds every buffer the write path keeps for reuse (an
// entry's scratch batch, the append handler's pooled edges, decode's
// pooled bodies), so one huge batch does not pin its size afterwards.
const maxKeptBytes = 1 << 20

// small reports whether s's array is small enough to keep for reuse.
func small[T any](s []T) bool { return uintptr(cap(s))*unsafe.Sizeof(*new(T)) <= maxKeptBytes }

// GraphStore is a concurrency-safe registry of named graphs. Sealed
// graphs are immutable CSR structures shared by all readers; streaming
// graphs accumulate edges under a per-entry lock until sealed. With a
// data directory attached, every mutation is made durable before it is
// acknowledged — how, and what recovery makes of it, is persist.Dir's
// business; the store keeps names, ids, entries and locking.
type GraphStore struct {
	mu      sync.RWMutex
	graphs  map[string]*entry
	nextID  atomic.Uint64
	closed  atomic.Bool
	dir     *persist.Dir // nil: in-memory only
	backend gstore.Kind  // default serving backend for sealed graphs
	logf    func(format string, args ...any)
}

// NewGraphStore returns a graph store serving sealed graphs from the
// given default backend ("" means compact). With an empty dataDir it is
// in-memory only, and the mmap backend is refused. Otherwise it opens
// (creating if needed) dataDir and recovers its contents through
// persist.Recover: valid snapshots come back sealed, write-ahead logs
// without a snapshot come back streaming, and corrupt files are
// quarantined with a log line instead of failing boot. logf receives
// the recovery and persistence log lines (nil discards them); obs, when
// non-nil, observes every durability operation, boot-time recovery
// included.
func NewGraphStore(dataDir string, backend gstore.Kind, logf func(format string, args ...any), obs persist.Observer) (*GraphStore, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if backend == "" {
		backend = gstore.KindCompact
	}
	s := &GraphStore{graphs: make(map[string]*entry), backend: backend, logf: logf}
	if dataDir == "" {
		if backend == gstore.KindMmap {
			return nil, api.Errorf(api.CodeInvalidArgument, "backend %q requires a data directory", backend)
		}
		return s, nil
	}
	dir, recovered, err := persist.Recover(dataDir, backend, obs, logf)
	if err != nil {
		return nil, err
	}
	s.dir = dir
	for _, r := range recovered {
		e := &entry{id: s.nextID.Add(1)}
		if r.Graph != nil {
			e.g = r.Graph
		} else {
			e.b, e.wal, e.nNodes, e.nEdges = r.Builder, r.WAL, r.WAL.Nodes(), r.Edges
		}
		s.graphs[r.Name] = e
	}
	return s, nil
}

// reserve inserts a new entry for name with its mutex already held, so
// the caller can finish (possibly slow) persistence work without
// blocking the rest of the store; readers of this one name wait on the
// entry lock. The caller must either commit (unlock) or abort.
func (s *GraphStore) reserve(name string) (*entry, error) {
	if err := persist.CheckName(name); err != nil {
		return nil, api.Errorf(api.CodeInvalidArgument, "%v", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return nil, api.Errorf(api.CodeUnavailable, "graph store is shut down")
	}
	if _, ok := s.graphs[name]; ok {
		return nil, api.Errorf(api.CodeConflict, "graph %q already exists", name)
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
// default backend. It fails with a conflict if the name is taken. With
// a data directory attached the snapshot is written (atomically) before
// the graph becomes visible as sealed.
func (s *GraphStore) Put(name string, g *gstore.Compact) (api.GraphInfo, error) {
	return s.PutWithBackend(name, g, "")
}

// PutWithBackend is Put with a per-graph serving-backend override; the
// empty kind means the store default.
func (s *GraphStore) PutWithBackend(name string, g *gstore.Compact, kind gstore.Kind) (api.GraphInfo, error) {
	if kind == "" {
		kind = s.backend
	}
	if kind == gstore.KindMmap && s.dir == nil {
		return api.GraphInfo{}, api.Errorf(api.CodeInvalidArgument, "backend %q requires a data directory", kind)
	}
	e, err := s.reserve(name)
	if err != nil {
		return api.GraphInfo{}, err
	}
	sg, err := s.dir.Put(name, g, kind)
	if err != nil {
		s.abortReserve(name, e)
		return api.GraphInfo{}, api.Errorf(api.CodeInternal, "persisting graph %q: %v", name, err)
	}
	e.g = sg
	info := s.infoLocked(name, e)
	e.mu.Unlock()
	return info, nil
}

// Get returns the sealed graph's read view under name together with
// its store id (the cache-key component that distinguishes same-named
// graphs across delete/re-create cycles). Unsealed graphs report a
// conflict.
func (s *GraphStore) Get(name string) (gstore.Graph, uint64, error) {
	e, err := s.lock(name)
	if err != nil {
		return nil, 0, err
	}
	g := e.g
	e.mu.Unlock()
	if g == nil {
		return nil, 0, api.Errorf(api.CodeConflict, "graph %q is still streaming; seal it first", name)
	}
	return g, e.id, nil
}

// lock returns the entry under name with its mutex held.
func (s *GraphStore) lock(name string) (*entry, error) {
	s.mu.RLock()
	e, ok := s.graphs[name]
	s.mu.RUnlock()
	if !ok {
		return nil, api.Errorf(api.CodeNotFound, "graph %q not found", name)
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
	info := api.GraphInfo{Name: name, State: api.GraphStreaming}
	switch {
	case s.dir == nil:
		info.Persistence = api.PersistNone
	case e.g != nil:
		info.Persistence = api.PersistSnapshot
	default:
		info.Persistence = api.PersistWAL
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
	s.dir.Remove(name, e.wal)
	e.wal = nil
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
	if n <= 0 || n > graph.MaxEdgeListNodes {
		return api.GraphInfo{}, api.Errorf(api.CodeInvalidArgument, "stream graph needs 0 < nodes <= %d, got %d", graph.MaxEdgeListNodes, n)
	}
	e, err := s.reserve(name)
	if err != nil {
		return api.GraphInfo{}, err
	}
	if s.dir != nil {
		w, err := s.dir.CreateWAL(name, n)
		if err != nil {
			s.abortReserve(name, e)
			return api.GraphInfo{}, api.Errorf(api.CodeInternal, "creating WAL for %q: %v", name, err)
		}
		e.wal = w
	}
	e.b = graph.NewBuilder(n)
	e.nNodes = n
	info := s.infoLocked(name, e)
	e.mu.Unlock()
	return info, nil
}

// AppendEdges adds a batch of edges to an unsealed graph. A weight of 0
// means 1, and self-loops are ignored (matching graph.Builder); an edge
// persist.Edge.Check refuses fails the whole batch atomically before
// any edge is applied. With a data directory attached, the batch is
// fsync'd to the graph's write-ahead log before it is applied — an
// acknowledged batch is durable.
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
		return api.Errorf(api.CodeUnavailable, "graph store is shut down")
	}
	if e.b == nil {
		return api.Errorf(api.CodeConflict, "graph %q is sealed; cannot append edges", name)
	}
	// The scratch is reused under e.mu; the WAL keeps no byte of it.
	batch := slices.Grow(e.batch[:0], len(edges))
	if small(batch) {
		e.batch = batch
	}
	for i, ed := range edges {
		pe := persist.Edge{U: ed.U, V: ed.V, W: ed.W}
		if ed.W == 0 {
			pe.W = 1
		}
		if err := pe.Check(e.nNodes); err != nil {
			return api.Errorf(api.CodeInvalidArgument, "edge %d %v", i, err)
		}
		batch = append(batch, pe)
	}
	if e.wal != nil {
		if err := e.wal.AppendBatch(batch); err != nil {
			return api.Errorf(api.CodeInternal, "logging edge batch for %q: %v", name, err)
		}
	}
	for _, ed := range batch {
		e.b.AddWeightedEdge(ed.U, ed.V, ed.W)
	}
	e.nEdges += len(edges)
	return nil
}

// Seal builds a streaming graph into its immutable compact CSR form,
// after which it is queryable and frozen. With a data directory attached, persist.Dir.Seal writes the
// binary snapshot before it retires the write-ahead log; on failure the
// stream stays intact (builder and WAL untouched), so the caller can
// retry once the I/O problem clears.
func (s *GraphStore) Seal(name string) (api.GraphInfo, error) {
	e, err := s.lock(name)
	if err != nil {
		return api.GraphInfo{}, err
	}
	defer e.mu.Unlock()
	if s.closed.Load() {
		return api.GraphInfo{}, api.Errorf(api.CodeUnavailable, "graph store is shut down")
	}
	if e.b == nil {
		return api.GraphInfo{}, api.Errorf(api.CodeConflict, "graph %q is already sealed", name)
	}
	c, err := e.b.Build()
	if err != nil {
		return api.GraphInfo{}, api.Errorf(api.CodeInvalidArgument, "sealing %q: %v", name, err)
	}
	sg, err := s.dir.Seal(name, c, e.wal, s.backend)
	if err != nil {
		return api.GraphInfo{}, api.Errorf(api.CodeInternal, "persisting sealed graph %q: %v", name, err)
	}
	e.g = sg
	e.b, e.wal, e.batch = nil, nil, nil
	return s.infoLocked(name, e), nil
}

// Close closes every open write-ahead log, each already durable up to
// its last acknowledged append, and marks the store as shut down;
// subsequent mutations are unavailable. A clean Close followed by a
// restart on the same data directory replays to the identical store
// state.
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
	var errs []error
	for name, e := range entries {
		e.mu.Lock()
		if err := e.wal.Close(); err != nil {
			s.logf("persist: closing WAL of %q on shutdown: %v", name, err)
			errs = append(errs, err)
		}
		e.wal = nil
		// Release mmap-backed graphs so shutdown leaves no dangling
		// mappings. The caller must have stopped every reader first: a
		// stopped listener is not enough (query flights outlive their
		// handlers), which is why Server.Close drains them before this.
		if err := e.g.Close(); err != nil {
			s.logf("store: closing backend of %q on shutdown: %v", name, err)
			errs = append(errs, err)
		}
		e.mu.Unlock()
	}
	return errors.Join(errs...)
}
