// Command graphbench is the repository's benchmark: it boots an
// in-process graphd on a loopback listener and drives it through the
// pkg/client SDK, one workload per process, with two closed-loop
// clients. A plain run (-trace 0) reports the end-to-end metrics; a
// traced run (-trace 1) reports the per-layer metrics, timed from
// outside by calling each layer's public functions, and writes the span
// trace. BENCHMARK.json at the repository root names the workloads,
// metrics and bounds; README.md in this directory explains them.
//
//	bash bench/run.sh -workload deep_miss -seed 1 -seconds 20 -trace 0
//	bash bench/run.sh -aa 10 -workload all
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// queryLevels is the Kronecker power of the query workloads' graph:
// 65 536 nodes, about 478k edges, about 40k of the nodes non-isolated.
const queryLevels = 16

// setupRepeats is how often a plain run sets the daemon up; setup_s is
// the median.
const setupRepeats = 3

// endToEnd and perLayer list every metric a run prints, in print order;
// a test holds them equal to BENCHMARK.json.
var endToEnd = []string{"setup_s", "qps", "lat_p50_ms", "lat_p95_ms", "alloc_kb_per_op", "heap_live_mb"}

var perLayer = []string{
	"client.roundtrip_us", "client.overhead_us",
	"api.decode_us", "api.encode_us", "api.req_bytes_per_op", "api.resp_bytes_per_op",
	"service.handler_us", "service.self_us", "service.allocs_per_op", "service.alloc_kb_per_op", "service.cache_hit_share",
	"kernel.diffuse_us", "kernel.share_of_handler", "kernel.diffuse_us.heap", "kernel.diffuse_us.compact", "kernel.diffuse_us.mmap",
	"kernel.batch_us_per_seed", "kernel.pushes_per_op", "kernel.work_volume_per_op", "kernel.support_per_op",
	"kernel.ns_per_push", "kernel.allocs_per_op",
	"local.sweep_us",
	"gstore.build_compact_ms", "gstore.open_ms.heap", "gstore.open_ms.compact", "gstore.open_ms.mmap",
	"persist.snapshot_write_ms", "persist.snapshot_bytes_per_edge", "persist.wal_append_us", "persist.wal_bytes_per_edge",
	"cycle.create_ms", "cycle.append_ms", "cycle.seal_ms", "cycle.query_ms", "cycle.delete_ms",
	"load.samples", "load.lat_p99_ms", "load.lat_max_ms",
	"proc.cpu_us_per_op", "proc.rss_peak_mb", "proc.gc_cycles", "proc.gc_pause_ms_total",
	"trace.overhead_share",
}

// summary is the JSON file a run leaves beside its trace. It makes no
// performance claim: this benchmark only measures.
type summary struct {
	Workload   string    `json:"workload"`
	Seed       int64     `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Trace      bool      `json:"trace"`
	Clients    int       `json:"clients"`
	NProc      int       `json:"nproc"`
	GoMaxProcs int       `json:"gomaxprocs"`
	GoVersion  string    `json:"go_version"`
	Commit     string    `json:"commit"`
	RespDigest string    `json:"resp_digest"`
	Warnings   []string  `json:"warnings"`
	Result     *result   `json:"result"`
	Claim      *struct{} `json:"claim"`
}

func main() {
	var (
		workloadFlag = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+" (with -aa also a comma-separated list or \"all\")")
		seed         = flag.Int64("seed", 1, "seed of the graph and the request stream")
		seconds      = flag.Float64("seconds", 20, "length of the measured closed loop")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics and the span trace")
		aa           = flag.Int("aa", 0, "A/A mode: run each selected workload this many times and judge the spread against BENCHMARK.json")
		spec         = flag.String("spec", "BENCHMARK.json", "benchmark definition read by -aa")
		outDir       = flag.String("out", filepath.Join("bench", "out"), "directory for trace and summary files")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "graphbench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	if *aa > 0 {
		check(runAA(*aa, *workloadFlag, *seed, *seconds, *spec, *outDir))
		return
	}
	cfg := runConfig{
		workload: *workloadFlag, seed: *seed, seconds: *seconds, trace: *trace == 1,
		levels: queryLevels, setups: setupRepeats, shrink: 1, validity: true,
		outDir: *outDir, log: os.Stderr,
	}
	// An interrupt cancels the SDK calls in flight, the loops wind down,
	// and run's deferred close stops the daemon and removes its data
	// directory.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := run(ctx, cfg)
	check(err)
	for _, w := range res.warnings {
		fmt.Fprintln(os.Stderr, "graphbench: warning:", w)
	}
	check(writeSummary(cfg, res))
	names := endToEnd
	if cfg.trace {
		names = perLayer
	}
	for _, name := range names {
		mv := res.Metrics[name]
		fmt.Printf("%-32s %14.6g %s\n", name, mv.Value, mv.Unit)
	}
	line, err := json.Marshal(res)
	check(err)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// check ends the process on an error, before any result line is printed.
func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphbench:", err)
		os.Exit(1)
	}
}

func writeSummary(cfg runConfig, res *result) error {
	s := summary{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Clients: numClients, NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: os.Getenv("GRAPHBENCH_COMMIT"),
		RespDigest: res.digest, Warnings: res.warnings, Result: res,
	}
	body, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(summaryPath(cfg.outDir, cfg.workload, cfg.trace), append(body, '\n'), 0o644)
}

func summaryPath(outDir, workload string, trace bool) string {
	mode := "trace0"
	if trace {
		mode = "trace1"
	}
	return filepath.Join(outDir, "summary-"+workload+"-"+mode+".json")
}
