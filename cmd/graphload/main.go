// Command graphload is graphd's steady-state load generator: it drives
// an open-loop arrival process of strongly-local queries (a configurable
// ppr/localcluster/diffuse/batch mix) against a live daemon through the
// pkg/client SDK, and reports the latency distribution (p50/p90/p99/
// p99.9), achieved qps and error rate as both a human summary and a
// JSON report (-out).
//
// Open loop means arrivals are scheduled by the clock, not by response
// completion, so a slow server accumulates inflight requests (bounded
// by -max-inflight; arrivals past the bound are dropped and counted)
// instead of silently throttling the offered load — the honest way to
// measure a serving system's SLO behavior.
//
// Usage:
//
//	graphload -server http://localhost:8080 -rate 200 -duration 10s
//	graphload -self -rate 500 -duration 5s -out load.json
//
// With -self it boots an in-process graphd on a loopback listener and
// loads that, so CI needs no separate daemon process. The target graph
// (-graph) is generated (ring of cliques, -gen-k × -gen-size) when the
// server does not already have it.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/service"
	"repro/pkg/api"
	"repro/pkg/client"
)

func main() {
	var (
		server      = flag.String("server", "", "graphd base URL (e.g. http://localhost:8080); empty requires -self")
		self        = flag.Bool("self", false, "boot an in-process graphd on a loopback listener and load it")
		backend     = flag.String("backend", "", "storage backend for -self and for generating the target graph (compact, mmap)")
		dataDir     = flag.String("data-dir", "", "data directory for -self (required for -backend mmap; default in-memory)")
		graphName   = flag.String("graph", "loadtest", "target graph name; generated if absent")
		genK        = flag.Int("gen-k", 32, "cliques in the generated ring-of-cliques graph")
		genSize     = flag.Int("gen-size", 16, "clique size in the generated graph")
		mixSpec     = flag.String("mix", "ppr=0.8,localcluster=0.15,diffuse=0.05", "query mix as op=weight pairs (ops: ppr, localcluster, diffuse, batch)")
		rate        = flag.Float64("rate", 200, "open-loop arrival rate in requests/second")
		duration    = flag.Duration("duration", 10*time.Second, "measured steady-state duration")
		warmup      = flag.Duration("warmup", 2*time.Second, "warmup duration excluded from the report")
		maxInflight = flag.Int("max-inflight", 256, "inflight bound; arrivals past it are dropped (and counted)")
		seed        = flag.Int64("seed", 1, "RNG seed for the op/seed-node sequence")
		timeout     = flag.Duration("timeout", 10*time.Second, "per-request timeout")
		out         = flag.String("out", "", "write the JSON report here")
	)
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("graphload: ")

	mix, err := parseMix(*mixSpec)
	if err != nil {
		log.Fatal(err)
	}
	if *rate <= 0 {
		log.Fatal("-rate must be positive")
	}

	baseURL := *server
	if *self {
		if baseURL != "" {
			log.Fatal("-self and -server are mutually exclusive")
		}
		shutdown, url, err := bootSelf(*backend, *dataDir)
		if err != nil {
			log.Fatal(err)
		}
		defer shutdown()
		baseURL = url
	}
	if baseURL == "" {
		log.Fatal("need -server URL or -self")
	}

	c, err := client.New(baseURL, client.WithTimeout(*timeout))
	if err != nil {
		log.Fatal(err)
	}
	n, err := ensureGraph(c, *graphName, *genK, *genSize, *backend)
	if err != nil {
		log.Fatal(err)
	}

	cfg := loadConfig{
		Server: baseURL, Graph: *graphName, Nodes: n, Mix: *mixSpec,
		Rate: *rate, Duration: duration.String(), Warmup: warmup.String(),
		MaxInflight: *maxInflight, Seed: *seed,
	}
	rep := run(c, cfg, mix, *rate, *warmup, *duration, *maxInflight, *seed, n)
	printSummary(os.Stdout, rep)
	if *out != "" {
		if err := writeReport(*out, rep); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", *out)
	}
	if rep.Metrics.Requests == 0 {
		log.Fatal("no requests completed in the measurement window")
	}
}

// bootSelf starts an in-process graphd on a loopback listener and
// returns its shutdown function and base URL.
func bootSelf(backend, dataDir string) (func(), string, error) {
	srv, err := service.NewServer(service.Config{Backend: backend, DataDir: dataDir})
	if err != nil {
		return nil, "", err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, "", err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	shutdown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		srv.Close()
	}
	return shutdown, "http://" + ln.Addr().String(), nil
}

// ensureGraph resolves the target graph, generating a ring of cliques
// when the name is absent, and returns its node count (the seed-node
// space the load loop draws from).
func ensureGraph(c *client.Client, name string, k, size int, backend string) (int, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	info, err := c.Graphs.Get(ctx, name)
	if err == nil {
		if !info.Sealed {
			return 0, fmt.Errorf("graph %q is still streaming; seal it first", name)
		}
		return info.Nodes, nil
	}
	if !api.IsNotFound(err) {
		return 0, err
	}
	var opts []client.CreateOption
	if backend != "" {
		opts = append(opts, client.WithBackend(api.GraphBackend(backend)))
	}
	info, err = c.Graphs.Generate(ctx, name, api.GenerateRequest{
		Family: "ring_of_cliques", K: k, CliqueN: size,
	}, opts...)
	if err != nil {
		return 0, fmt.Errorf("generating graph %q: %w", name, err)
	}
	return info.Nodes, nil
}
