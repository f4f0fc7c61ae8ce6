package service

import (
	"crypto/rand"
	"encoding/hex"
	"log"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/gstore"
	"repro/internal/persist"
)

// Config sizes the server's bounded resources. The zero value is a
// sensible default for tests and small deployments.
type Config struct {
	// CacheEntries bounds the shared query/job result cache (default
	// 1024; negative disables caching).
	CacheEntries int
	// JobWorkers is the async pool size (default 2).
	JobWorkers int
	// JobQueue bounds pending jobs; submissions beyond it are rejected
	// with 503 unavailable rather than queued unboundedly (default 64).
	JobQueue int
	// QueryTimeout is the default per-request deadline for synchronous
	// queries, overridable per request with ?timeout_ms= (default 30s).
	QueryTimeout time.Duration
	// MaxBodyBytes caps request bodies (default 64 MiB).
	MaxBodyBytes int64
	// AccessLog receives one structured record per served request
	// (request ID, method, path, status, response bytes, duration);
	// nil disables access logging.
	AccessLog *slog.Logger
	// TraceBuffer sizes the ring of completed queries served at
	// GET /debug/queries (default 128; negative disables the trace).
	TraceBuffer int
	// DisableTelemetry turns off the per-request ID, the query trace
	// ring and the work histograms, leaving only the seed metrics.
	// Exists so the telemetry overhead is measurable (and zero when it
	// matters more than visibility).
	DisableTelemetry bool
	// DataDir, when set, makes the graph store durable: sealed graphs
	// persist as binary CSR snapshots, streaming graphs as write-ahead
	// logs, and boot recovers both (quarantining corrupt files).
	// Empty keeps the store in-memory only.
	DataDir string
	// Backend selects the default storage backend sealed graphs are
	// served from: "compact" (default) or "mmap". The mmap backend
	// requires DataDir. Individual graphs can override it with
	// ?backend= at load/import/generate time.
	Backend string
	// OpLog receives operational log lines (recovery, quarantine,
	// persistence failures). Nil uses the process-default logger.
	OpLog *log.Logger
}

func (c Config) withDefaults() Config {
	if c.CacheEntries == 0 {
		c.CacheEntries = 1024
	}
	if c.JobWorkers <= 0 {
		c.JobWorkers = 2
	}
	if c.JobQueue <= 0 {
		c.JobQueue = 64
	}
	if c.QueryTimeout <= 0 {
		c.QueryTimeout = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	return c
}

// Server ties the graph store, result cache, job pool and metrics into
// one http.Handler. Create with NewServer, serve Handler(), Close when
// done.
type Server struct {
	cfg       Config
	store     *GraphStore
	cache     *LRUCache
	jobs      *JobManager
	metrics   *Metrics
	trace     *QueryTrace
	accessLog *slog.Logger
	logOp     func(format string, args ...any) // operational log lines: cfg.OpLog or the process logger
	inflight  inflight
	handler   http.Handler
	started   time.Time

	// Request-ID minting: a per-boot random prefix plus a counter.
	ridPrefix  string
	ridCounter atomic.Uint64
}

// NewServer assembles a Server with the default job types registered.
// When cfg.DataDir is set, the store is opened durable and boot-time
// recovery runs before the server is returned; recovery quarantines
// corrupt files rather than failing, so the only errors here are
// directory-level (unreadable/uncreatable data dir).
func NewServer(cfg Config) (*Server, error) {
	c := cfg.withDefaults()
	backend, err := gstore.ParseKind(c.Backend)
	if err != nil {
		return nil, err
	}
	// The metrics registry exists before the store so boot-time recovery
	// (WAL replay, snapshot loads) already reports into the durability
	// histograms. With DisableTelemetry the store gets a nil observer
	// and the persistence path performs no clock reads at all.
	metrics := NewMetrics()
	var obs persist.Observer
	if !c.DisableTelemetry {
		obs = metrics
	}
	logOp := log.Printf
	if c.OpLog != nil {
		logOp = c.OpLog.Printf
	}
	store, err := NewGraphStore(c.DataDir, backend, logOp, obs)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:       c,
		store:     store,
		cache:     NewLRUCache(c.CacheEntries),
		metrics:   metrics,
		accessLog: c.AccessLog,
		logOp:     logOp,
		started:   time.Now(),
		ridPrefix: newRIDPrefix(),
	}
	s.inflight.flights = make(map[string]*flight)
	if !c.DisableTelemetry && c.TraceBuffer >= 0 {
		n := c.TraceBuffer
		if n == 0 {
			n = defaultTraceBuffer
		}
		s.trace = NewQueryTrace(n)
	}
	s.jobs = NewJobManager(s.store, s.cache, s.metrics, c.JobWorkers, c.JobQueue)
	RegisterDefaultJobs(s.jobs)
	s.handler = s.withTelemetry(s.withMaxBytes(s.routes()))
	return s, nil
}

// newRIDPrefix draws the per-boot request-ID prefix ("8f3a21bc-").
// Generated IDs only need process uniqueness; the random prefix keeps
// IDs from different boots distinguishable in aggregated logs.
func newRIDPrefix() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "rid-"
	}
	return hex.EncodeToString(b[:]) + "-"
}

// Store exposes the graph registry, e.g. for preloading graphs at boot.
func (s *Server) Store() *GraphStore { return s.store }

// Handler returns the fully-wired HTTP handler.
func (s *Server) Handler() http.Handler { return s.handler }

// Close cancels running jobs, stops the worker pool, and flushes and
// closes every open write-ahead log so a clean shutdown leaves no
// dangling file handles and a restart replays to the identical state.
func (s *Server) Close() {
	s.jobs.Close()
	// Query flights outlive their handlers, so a stopped listener does
	// not mean nothing is reading the store: refuse new flights and wait
	// for the open batches (bounded by their compute budget) before the store releases — on mmap, unmaps — the graphs.
	s.inflight.mu.Lock()
	s.inflight.draining = true
	s.inflight.mu.Unlock()
	s.inflight.running.Wait()
	if err := s.store.Close(); err != nil {
		log.Printf("graphd: closing graph store: %v", err)
	}
}

func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	// The query trace is serving-port visible (graphctl reaches it);
	// pprof and expvar are not — they live only on DebugHandler, bound
	// separately via -debug-addr.
	mux.HandleFunc("GET /debug/queries", s.handleDebugQueries)

	mux.HandleFunc("GET /v1/graphs", s.handleListGraphs)
	mux.HandleFunc("GET /v1/graphs/{name}", s.handleGetGraph)
	mux.HandleFunc("POST /v1/graphs/{name}", s.handleLoadGraph)
	mux.HandleFunc("DELETE /v1/graphs/{name}", s.handleDeleteGraph)
	mux.HandleFunc("GET /v1/graphs/{name}/snapshot", s.handleExportSnapshot)
	mux.HandleFunc("PUT /v1/graphs/{name}/snapshot", s.handleImportSnapshot)
	mux.HandleFunc("POST /v1/graphs/{name}/generate", s.handleGenerate)
	mux.HandleFunc("POST /v1/graphs/{name}/stream", s.handleStreamCreate)
	mux.HandleFunc("POST /v1/graphs/{name}/edges", s.handleAppendEdges)
	mux.HandleFunc("POST /v1/graphs/{name}/seal", s.handleSeal)

	mux.HandleFunc("GET /v1/graphs/{name}/stats", s.handleStats)
	mux.HandleFunc("POST /v1/graphs/{name}/ppr", s.handlePPR)
	mux.HandleFunc("POST /v1/graphs/{name}/ppr:batch", s.handlePPRBatch)
	mux.HandleFunc("POST /v1/graphs/{name}/localcluster", s.handleLocalCluster)
	mux.HandleFunc("POST /v1/graphs/{name}/localcluster:batch", s.handleLocalClusterBatch)
	mux.HandleFunc("POST /v1/graphs/{name}/diffuse", s.handleDiffuse)
	mux.HandleFunc("POST /v1/graphs/{name}/sweepcut", s.handleSweepCut)

	mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	return mux
}

// urlParams returns the request's URL parameters, parsed at most once:
// the parse is kept on the request (where ParseForm would, but without
// reading a body), so the copies the middleware makes carry it along.
func urlParams(r *http.Request) url.Values {
	if r.Form == nil && r.URL.RawQuery != "" {
		r.Form = r.URL.Query()
	}
	return r.Form
}

// queryTimeout resolves the per-request deadline: the configured
// default, overridable (within [1ms, 10min]) by a ?timeout_ms= query
// parameter.
func (s *Server) queryTimeout(r *http.Request) time.Duration {
	timeout := s.cfg.QueryTimeout
	if v := urlParams(r).Get("timeout_ms"); v != "" {
		if ms, err := strconv.Atoi(v); err == nil && ms >= 1 && ms <= 600_000 {
			timeout = time.Duration(ms) * time.Millisecond
		}
	}
	return timeout
}
