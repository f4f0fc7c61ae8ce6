// Command graphd is the long-running graph-analytics daemon: it serves
// the paper's strongly-local algorithms (PPR push, Nibble, heat-kernel
// diffusion, sweep cuts) as synchronous HTTP/JSON queries with caching
// and per-request deadlines, and the expensive global computations (NCP
// profiles, multilevel partitions, Figure-1 experiments) as cancellable
// async jobs on a bounded worker pool.
//
// With -data-dir the store is durable: sealed graphs persist as binary
// CSR snapshots (.gsnap), streaming graphs as fsync'd write-ahead logs
// (.wal), and a restart recovers both — corrupt files are quarantined
// with a log line instead of failing boot. See docs/persistence.md.
//
// With -backend the daemon picks the storage backend sealed graphs are
// served from: "compact" (the default: in-memory CSR with uint32 ids
// and no weight array for unit graphs) or "mmap" (queries run straight
// off the memory-mapped snapshot; requires -data-dir, and a restart
// remaps instead of reloading). See docs/storage.md.
//
// Usage:
//
//	graphd -addr :8080
//	graphd -addr :8080 -data-dir /var/lib/graphd
//	graphd -addr :8080 -load social=edges.txt.gz -load road=road.gsnap
//	graphd -addr :8080 -debug-addr 127.0.0.1:6060 -access-log
//
// Observability: /metrics (Prometheus text) and /debug/queries (recent
// query trace) are on the serving port; pprof and expvar are only ever
// on the separate -debug-addr listener. See docs/observability.md.
//
// Quickstart (cmd/graphctl is the CLI client, pkg/client the Go SDK):
//
//	graphctl health
//	graphctl generate demo -family kronecker -levels 10 -seed 1
//	graphctl ppr demo -seeds 0 -alpha 0.1 -sweep
//	graphctl ncp demo -method spectral
//
// The wire contract is the versioned pkg/api package; docs/api.md is
// the endpoint-by-endpoint reference.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/persist"
	"repro/internal/service"
	"repro/pkg/api"
)

// loadFlags collects repeated -load name=path flags.
type loadFlags []string

func (l *loadFlags) String() string { return strings.Join(*l, ",") }
func (l *loadFlags) Set(v string) error {
	*l = append(*l, v)
	return nil
}

func main() {
	var loads loadFlags
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		debugAddr  = flag.String("debug-addr", "", "debug listen address for pprof/expvar (empty = disabled; never exposed on -addr)")
		accessLog  = flag.Bool("access-log", false, "log one structured line per request to stderr")
		traceBuf   = flag.Int("trace-queries", 0, "recent-query trace entries for /debug/queries (0 = default 128, negative disables)")
		cacheSize  = flag.Int("cache", 1024, "result cache entries (negative disables)")
		jobWorkers = flag.Int("job-workers", 2, "async job worker count")
		jobQueue   = flag.Int("job-queue", 64, "max pending jobs")
		timeout    = flag.Duration("query-timeout", 30*time.Second, "default per-query deadline")
		dataDir    = flag.String("data-dir", "", "durable store directory (snapshots + WALs; empty = in-memory)")
		backend    = flag.String("backend", "compact", "default graph storage backend: compact or mmap (mmap requires -data-dir)")
		version    = flag.Bool("version", false, "print version and exit")
	)
	flag.Var(&loads, "load", "preload a graph: name=path (repeatable; edge list, .gz or .gsnap)")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("graphd"))
		return
	}

	cfg := service.Config{
		CacheEntries: *cacheSize,
		JobWorkers:   *jobWorkers,
		JobQueue:     *jobQueue,
		QueryTimeout: *timeout,
		DataDir:      *dataDir,
		Backend:      *backend,
		TraceBuffer:  *traceBuf,
	}
	if *accessLog {
		cfg.AccessLog = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	srv, err := service.NewServer(cfg)
	if err != nil {
		log.Fatalf("graphd: %v", err)
	}
	defer srv.Close()

	for _, spec := range loads {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			log.Fatalf("graphd: -load %q: want name=path", spec)
		}
		g, err := persist.ReadGraphFile(path)
		if err != nil {
			log.Fatalf("graphd: loading %s: %v", path, err)
		}
		if _, err := srv.Store().Put(name, g); err != nil {
			// A recovered graph with the same name already satisfies the
			// preload; anything else is fatal.
			if *dataDir != "" && api.IsConflict(err) {
				log.Printf("graphd: -load %s: %q already recovered from data dir, skipping", path, name)
				continue
			}
			log.Fatalf("graphd: registering %q: %v", name, err)
		}
		log.Printf("graphd: loaded %q from %s (n=%d m=%d)", name, path, g.N(), g.M())
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("graphd: serving on %s", *addr)

	// Profiling and expvar bind only here, never on the serving mux: an
	// operator who does not pass -debug-addr exposes no pprof at all,
	// and one who does can firewall the two ports independently.
	if *debugAddr != "" {
		debugSrv := &http.Server{
			Addr:              *debugAddr,
			Handler:           srv.DebugHandler(),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("graphd: debug listener: %v", err)
			}
		}()
		defer debugSrv.Close()
		log.Printf("graphd: debug endpoints (pprof, expvar) on %s", *debugAddr)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("graphd: %v", err)
		}
	case sig := <-sigc:
		log.Printf("graphd: %v, shutting down", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "graphd: shutdown: %v\n", err)
		}
	}
}
