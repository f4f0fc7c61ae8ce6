// Command graphctl is the command-line client for graphd, built
// entirely on the pkg/client SDK — it constructs no JSON by hand and
// parses no HTTP responses itself, so it doubles as a living example of
// the public API.
//
// Usage:
//
//	graphctl [-server URL] [-json] [flags] <command> [args]
//
// Graph lifecycle:
//
//	graphctl load web edges.txt.gz          # upload an edge list (.gz ok)
//	graphctl generate demo -family ring_of_cliques -k 16 -clique-n 12
//	graphctl stream inc -nodes 1000         # open an incremental graph
//	graphctl edges inc batch.txt            # append edges (file or '-')
//	graphctl seal inc                       # freeze into queryable form
//	graphctl graphs                         # list graphs
//	graphctl graph get demo                 # one record, incl. persistence
//	graphctl graph export demo demo.gsnap   # download binary snapshot
//	graphctl graph import copy demo.gsnap   # upload it as a new graph
//	graphctl stats demo
//	graphctl delete demo
//
// Synchronous queries:
//
//	graphctl ppr demo -seeds 0 -alpha 0.1 -sweep
//	graphctl localcluster demo -method nibble -seeds 5
//	graphctl diffuse demo -kind heat -seeds 0 -topk 10
//	graphctl sweepcut demo vector.txt       # "node mass" lines
//
// Async jobs:
//
//	graphctl ncp demo -method spectral -seeds 8      # submit + wait + result
//	graphctl partition demo -k 4
//	graphctl jobs                                    # list
//	graphctl job get j1 | job result j1 | job wait j1 | job cancel j1
//
// Global flags go before the command; -json switches every command from
// pretty-printed summaries to the raw API response.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/buildinfo"
	"repro/pkg/client"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// global flags, bound in run.
var (
	asJSON  bool
	timeout time.Duration
)

func run(args []string) int {
	global := flag.NewFlagSet("graphctl", flag.ContinueOnError)
	global.Usage = func() { usage(global) }
	server := global.String("server", envOr("GRAPHD_SERVER", "http://localhost:8080"), "graphd base URL (or $GRAPHD_SERVER)")
	retries := global.Int("retries", 2, "retry budget for 5xx/connection errors")
	gzipUp := global.Bool("gzip", false, "gzip-compress edge-list uploads")
	version := global.Bool("version", false, "print version and exit")
	global.BoolVar(&asJSON, "json", false, "print raw API responses as JSON")
	global.DurationVar(&timeout, "timeout", 5*time.Minute, "overall deadline per command")
	if err := global.Parse(args); err != nil {
		return 2
	}
	if *version {
		fmt.Println(buildinfo.String("graphctl"))
		return 0
	}
	rest := global.Args()
	if len(rest) == 0 {
		usage(global)
		return 2
	}

	opts := []client.Option{
		client.WithRetries(*retries),
		client.WithPollInterval(100 * time.Millisecond),
	}
	if *gzipUp {
		opts = append(opts, client.WithGzipUpload())
	}
	c, err := client.New(*server, opts...)
	if err != nil {
		return fail(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()

	cmd, args := rest[0], rest[1:]
	run, ok := commands[cmd]
	if !ok {
		fmt.Fprintf(os.Stderr, "graphctl: unknown command %q\n\n", cmd)
		usage(global)
		return 2
	}
	if err := run(ctx, c, args); err != nil {
		return fail(err)
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintf(os.Stderr, "graphctl: %v\n", err)
	return 1
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

func usage(fs *flag.FlagSet) {
	fmt.Fprint(os.Stderr, `graphctl — command-line client for graphd

usage: graphctl [global flags] <command> [command flags] [args]

graphs:
  graphs                         list stored graphs
  graph get <name>               one graph's record (incl. persistence)
  graph export <name> <file|->   download the binary .gsnap snapshot
  graph import <name> <file|->   upload a .gsnap snapshot as a sealed graph
  load <name> <file>             upload an edge list (plain or .gz)
  generate <name> [flags]        synthesize a graph server-side
  stream <name> -nodes N         open an incremental graph
  edges <name> <file|->          append "u v [w]" edges to a stream
  seal <name>                    freeze a streaming graph
  stats <name>                   degree/volume summary
  delete <name>                  remove a graph

queries:
  ppr <name> [flags]             personalized PageRank (ACL push)
  ppr-batch <name> [flags]       K independent single-seed pushes in one batch
  localcluster <name> [flags]    ppr | nibble | heat local clustering
  diffuse <name> [flags]         heat | ppr | lazy dense diffusion
  sweepcut <name> <file|->       sweep a "node mass" vector
  (add -work to ppr/localcluster/diffuse for kernel work accounting)

jobs:
  ncp <name> [flags]             NCP profile: submit, wait, print
  partition <name> -k K          k-way partition: submit, wait, print
  jobs                           list jobs
  job <get|wait|result|cancel> <id>

misc:
  health                         server health and build info
  metrics                        raw Prometheus metrics
  debug queries                  recent queries (id, route, cache, ms, work)
  debug metrics [prefix]         metrics grouped by family, filtered by name prefix

global flags:
`)
	fs.PrintDefaults()
}
