package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// runConfig is one run of one workload.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64 // length of the measured closed loop
	trace    bool    // per-layer run instead of the end-to-end run
	levels   int     // Kronecker levels of the query graph (16 in a real run)
	setups   int     // times the daemon is set up; setup_s is their median
	shrink   int     // divisor of the fixed op counts (1 in a real run)
	validity bool    // check the workload behaves as designed (hit shares, kernel share)
	outDir   string  // where the trace and summary files go
	log      io.Writer
}

// metricValue is one reported figure, as measured.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metricValue

func (m metricSet) set(name string, v float64, unit string) {
	if _, dup := m[name]; dup {
		panic("metric set twice: " + name)
	}
	m[name] = metricValue{v, unit}
}

// result is what a run reports: the contract's last line of output plus
// what the summary file and the A/A mode need.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`

	digest   string   // sha256 of the verified replies
	warnings []string // validity findings that do not fail the run
}

// sample is one successful op of a closed loop.
type sample struct {
	end float64 // ns from the loop's start to the reply
	lat float64 // ns from sending to the reply
}

// loopStats is one closed-loop phase.
type loopStats struct {
	samples   []sample // successful ops
	attempted int
	failed    int
	elapsed   time.Duration
	// The process's memory statistics either side of the loop, read
	// after the sample buffers exist, so their difference is the clients'
	// and the daemon's doing, not the bench's bookkeeping.
	before, after runtime.MemStats
}

func (l loopStats) qps() float64 { return float64(len(l.samples)) / l.elapsed.Seconds() }

// latencies returns the op latencies in ascending order.
func (l loopStats) latencies() []float64 {
	lat := make([]float64, len(l.samples))
	for i, s := range l.samples {
		lat[i] = s.lat
	}
	sort.Float64s(lat)
	return lat
}

// measureWindows is how many equal windows a measured loop is cut into.
// Each end-to-end timing is the median over the windows of the window's
// own figure, so a collection or a burst of hypervisor steal that spoils
// one or two windows does not move the run's figure. Five windows keep
// enough samples in each for a p95 on the slowest workload.
const measureWindows = 5

// windowed cuts a loop of length d into measureWindows windows by reply
// time and returns the median over windows of each window's throughput,
// median latency and p95 latency (lowered, as ever, to the highest
// percentile the smallest window supports). Replies after d belong to no
// window. A loop too short to put a reply in every window is one window.
func (l loopStats) windowed(d time.Duration, log io.Writer) (qps, p50, p95, p95q float64) {
	for _, n := range []int{measureWindows, 1} {
		width := float64(d) / float64(n)
		lats := make([][]float64, n)
		first, last := make([]float64, n), make([]float64, n)
		for _, s := range l.samples {
			w := int(s.end / width)
			if w >= n {
				continue
			}
			if len(lats[w]) == 0 || s.end < first[w] {
				first[w] = s.end
			}
			last[w] = max(last[w], s.end)
			lats[w] = append(lats[w], s.lat)
		}
		var qs, p50s, p95s []float64
		p95q = 0.95
		for w := range lats {
			sort.Float64s(lats[w])
			q, _ := supportedPercentile(lats[w], p95q)
			p95q = min(p95q, q)
		}
		for w := range lats {
			if len(lats[w]) == 0 {
				break
			}
			// Replies per second between the window's first and last
			// reply: a rate as measured, not a count over a nominal width.
			rate := float64(len(lats[w])) / (width / 1e9)
			if last[w] > first[w] {
				rate = float64(len(lats[w])-1) / ((last[w] - first[w]) / 1e9)
			}
			qs = append(qs, rate)
			v50, _ := percentile(lats[w], 0.5)
			v95, _ := percentile(lats[w], p95q)
			p50s, p95s = append(p50s, v50), append(p95s, v95)
		}
		if len(qs) == n {
			fmt.Fprintf(log, "windows: ops/s %.6g, p50 ns %.6g, p%g ns %.6g\n", qs, p50s, p95q*100, p95s)
			return median(qs), median(p50s), median(p95s), p95q
		}
	}
	return 0, 0, 0, 0.5
}

// run sets the daemon up, checks its replies, and measures.
func run(ctx context.Context, cfg runConfig) (*result, error) {
	w, err := newWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	sz := w.sizes().shrink(cfg.shrink)
	var (
		rec  *recorder
		wrap func(http.Handler) http.Handler
	)
	setups := cfg.setups
	if cfg.trace {
		rec = newRecorder()
		wrap = func(h http.Handler) http.Handler { return traceHandler(rec, h) }
		setups = 1
	}

	// Set-up: boot, load, derive the request stream, warm up for a fixed
	// number of ops. Repeated so setup_s is a median; the last daemon is
	// the one measured.
	var (
		e        *env
		next     [numClients]int // next op index of each client
		setupSec []float64
	)
	for i := 0; i < setups; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, err
			}
			runtime.GC()
		}
		t0 := time.Now()
		dcfg, durable := w.daemon()
		if e, err = boot(dcfg, durable, wrap); err != nil {
			return nil, err
		}
		defer e.close()
		if err := w.prepare(ctx, e, cfg.seed, cfg.levels); err != nil {
			return nil, err
		}
		next = [numClients]int{}
		warm := closedLoop(ctx, w, e, &next, 0, sz.warmup/numClients, nil, cfg.log)
		if warm.failed > 0 {
			return nil, fmt.Errorf("%d of %d warm-up ops failed", warm.failed, warm.attempted)
		}
		setupSec = append(setupSec, time.Since(t0).Seconds())
	}

	res := &result{Correct: true, Metrics: metricSet{}}
	v := newVerifier()
	for i := 0; i < sz.verify; i++ {
		if err := w.op(ctx, e, 0, next[0], nil, v); err != nil {
			fmt.Fprintf(cfg.log, "verification op %d: %v\n", i, err)
			res.Correct = false
			break
		}
		next[0]++
	}
	res.digest = v.digest()
	fmt.Fprintf(cfg.log, "verified %d replies, resp_digest %s\n", v.replies, res.digest)

	if cfg.trace {
		err = tracedRun(ctx, cfg, w, e, sz, &next, rec, res)
	} else {
		measuredRun(ctx, cfg, w, e, &next, setupSec, res)
	}
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	return res, e.close()
}

// closedLoop drives the daemon with numClients clients, each sending
// its next op as soon as the previous reply is in. It runs for d, or,
// when d is 0, for count ops per client. With a recorder it records an
// SDK-call span tree per op.
func closedLoop(ctx context.Context, w workload, e *env, next *[numClients]int, d time.Duration, count int, rec *recorder, log io.Writer) loopStats {
	var (
		wg      sync.WaitGroup
		done    [numClients][]sample
		failed  [numClients]int
		logOnce sync.Once
	)
	capacity := count
	if d > 0 {
		capacity = int(d.Seconds()*20_000) + 1024 // per client, beyond any rate this box reaches
	}
	for k := range done {
		done[k] = make([]sample, 0, capacity)
	}
	var st loopStats
	runtime.ReadMemStats(&st.before)
	start := time.Now()
	deadline := start.Add(d)
	for k := 0; k < numClients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for n := 0; ; n++ {
				if ctx.Err() != nil || d == 0 && n >= count {
					return
				}
				t0 := time.Now()
				if d > 0 && !t0.Before(deadline) {
					return
				}
				j := next[k]
				next[k]++
				var (
					t    *opTracer
					root int
				)
				if rec != nil {
					op := k<<24 + j + 1
					root = rec.begin(op, 0, spanRequest)
					t = &opTracer{rec: rec, op: op, parent: root}
				}
				err := w.op(ctx, e, k, j, t, nil)
				if rec != nil {
					rec.end(root)
				}
				if err != nil {
					failed[k]++
					logOnce.Do(func() { fmt.Fprintf(log, "op %d of client %d failed: %v\n", j, k, err) })
					continue
				}
				t1 := time.Now()
				done[k] = append(done[k], sample{end: float64(t1.Sub(start)), lat: float64(t1.Sub(t0))})
			}
		}(k)
	}
	wg.Wait()
	st.elapsed = time.Since(start)
	runtime.ReadMemStats(&st.after)
	for k := range done {
		st.samples = append(st.samples, done[k]...)
		st.attempted += len(done[k]) + failed[k]
		st.failed += failed[k]
	}
	return st
}

// measuredRun is the end-to-end run: tracing off, every end-to-end
// metric.
func measuredRun(ctx context.Context, cfg runConfig, w workload, e *env, next *[numClients]int, setupSec []float64, res *result) {
	d := secondsToDuration(cfg.seconds)
	runtime.GC()
	st := closedLoop(ctx, w, e, next, d, 0, nil, cfg.log)

	res.Attempted, res.Failed = st.attempted, st.failed
	ok := float64(max(len(st.samples), 1))
	qps, p50, p95, q := st.windowed(d, cfg.log)
	if q != 0.95 {
		fmt.Fprintf(cfg.log, "only %d samples: lat_p95_ms reports p%g\n", len(st.samples), q*100)
	}
	// Two collections empty the workspace pools too, so what is left is
	// what the daemon holds on to, not what the last GC cycle happened
	// to leave. The latency samples are the bench's own; drop them first.
	st.samples = nil
	runtime.GC()
	runtime.GC()
	var settled runtime.MemStats
	runtime.ReadMemStats(&settled)

	m := res.Metrics
	m.set("setup_s", median(setupSec), "s")
	m.set("qps", qps, "ops/s")
	m.set("lat_p50_ms", p50/1e6, "ms")
	m.set("lat_p95_ms", p95/1e6, "ms")
	m.set("alloc_kb_per_op", float64(st.after.TotalAlloc-st.before.TotalAlloc)/1e3/ok, "kB")
	m.set("heap_live_mb", float64(settled.HeapAlloc)/1e6, "MB")
}

// processCPU returns the user and system CPU time the process has used.
// The guest kernel keeps hypervisor steal out of it, so an op's CPU cost
// stays readable on a shared box when its wall-clock figures do not.
func processCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

func secondsToDuration(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// tracedRun is the per-layer run. One client first sends a fixed number
// of ops one at a time with every span recorded and each layer replayed,
// and a second pass counts the handler's allocations; both come before
// the timed loops so that they always send the same ops and their counts
// repeat exactly for a seed. A short untraced closed loop then gives the
// generator and process figures, the same loop with SDK-call spans on
// gives the tracing overhead, and last the storage and kernel layers are
// timed directly.
func tracedRun(ctx context.Context, cfg runConfig, w workload, e *env, sz sizes, next *[numClients]int, rec *recorder, res *result) error {
	m := res.Metrics
	work := &workTotals{}
	for i := 0; i < sz.traced; i++ {
		op := i + 1
		root := rec.begin(op, 0, spanRequest)
		err := w.op(ctx, e, 0, next[0], &opTracer{rec: rec, op: op, parent: root, replay: true, work: work}, nil)
		rec.end(root)
		next[0]++
		res.Attempted++
		if err != nil {
			res.Failed++
			fmt.Fprintf(cfg.log, "traced op %d: %v\n", op, err)
		}
	}
	spans := append([]span(nil), rec.spans...)
	rec.reset()
	if err := checkTrace(spans); err != nil {
		return err
	}
	if err := writeTrace(filepath.Join(cfg.outDir, "trace-"+cfg.workload+".jsonl"), spans); err != nil {
		return err
	}
	spanMetrics(spans, sz.traced, work, m)

	rec.allocs.Store(true)
	for i := 0; i < sz.allocs; i++ {
		if err := w.op(ctx, e, 0, next[0], nil, nil); err != nil {
			return fmt.Errorf("allocation pass op %d: %w", i, err)
		}
		next[0]++
	}
	rec.allocs.Store(false)
	m.set("service.allocs_per_op", float64(rec.mallocs)/float64(sz.allocs), "count")
	m.set("service.alloc_kb_per_op", float64(rec.allocBytes)/1e3/float64(sz.allocs), "kB")

	runtime.GC()
	cpu0, err := processCPU()
	if err != nil {
		return err
	}
	off := closedLoop(ctx, w, e, next, secondsToDuration(cfg.seconds*0.3), 0, nil, cfg.log)
	cpu1, err := processCPU()
	if err != nil {
		return err
	}
	on := closedLoop(ctx, w, e, next, secondsToDuration(cfg.seconds*0.2), 0, rec, cfg.log)
	rec.reset()
	res.Attempted += off.attempted + on.attempted
	res.Failed += off.failed + on.failed
	lat := off.latencies()
	if len(lat) == 0 || len(on.samples) == 0 {
		return errors.New("a closed-loop phase completed no op")
	}
	q, p99 := supportedPercentile(lat, 0.99)
	if q != 0.99 {
		fmt.Fprintf(cfg.log, "only %d samples: load.lat_p99_ms reports p%g\n", len(lat), q*100)
	}
	m.set("load.samples", float64(len(lat)), "count")
	m.set("load.lat_p99_ms", p99/1e6, "ms")
	m.set("load.lat_max_ms", lat[len(lat)-1]/1e6, "ms")
	m.set("proc.cpu_us_per_op", (cpu1-cpu0).Seconds()*1e6/float64(len(lat)), "us")
	m.set("proc.gc_cycles", float64(off.after.NumGC-off.before.NumGC), "count")
	m.set("proc.gc_pause_ms_total", float64(off.after.PauseTotalNs-off.before.PauseTotalNs)/1e6, "ms")
	m.set("trace.overhead_share", 1-on.qps()/off.qps(), "ratio")

	if err := layerTimings(ctx, w, m); err != nil {
		return err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	m.set("proc.rss_peak_mb", rss, "MB")
	if cfg.validity {
		checkValidity(cfg.workload, m, res)
	}
	return nil
}

// spanMetrics turns the sequential phase's spans into the per-layer
// figures: a median over ops of each span name's time per op, exact
// means of the byte and work counts.
func spanMetrics(spans []span, ops int, work *workTotals, m metricSet) {
	type opSums struct {
		byName        map[string]float64 // ns per span name
		queries, hits int
		req, resp     int64
	}
	perOp := make(map[int]*opSums)
	self := selfTimes(spans)
	for _, s := range spans {
		o := perOp[s.Op]
		if o == nil {
			o = &opSums{byName: map[string]float64{}}
			perOp[s.Op] = o
		}
		o.byName[s.Name] += float64(s.dur())
		switch s.Name {
		case spanRoundtrip:
			o.byName["client.overhead"] += float64(self[s.ID])
		case spanHandler:
			o.req += s.ReqBytes
			o.resp += s.RespBytes
			if s.Cache != "" {
				o.queries++
			}
			if s.Cache == "hit" {
				o.hits++
			}
		}
	}
	var queries, hits int
	var req, resp int64
	series := map[string][]float64{}
	for _, o := range perOp {
		queries, hits = queries+o.queries, hits+o.hits
		req, resp = req+o.req, resp+o.resp
		// What the handler did besides the layers replayed beside it. A
		// cache hit decodes and answers from the LRU: only the decode
		// replay happened inside it.
		inHandler := o.byName[spanDecode]
		if o.hits < o.queries {
			inHandler += o.byName[spanKernel] + o.byName[spanSweep] + o.byName[spanEncode]
		}
		o.byName["service.self"] = o.byName[spanHandler] - inHandler
		for name, ns := range o.byName {
			series[name] = append(series[name], ns)
		}
	}
	p50 := func(name string, perUnit float64) float64 { return median(series[name]) / perUnit }
	m.set("client.roundtrip_us", p50(spanRoundtrip, 1e3), "us")
	m.set("client.overhead_us", p50("client.overhead", 1e3), "us")
	m.set("service.handler_us", p50(spanHandler, 1e3), "us")
	m.set("service.self_us", p50("service.self", 1e3), "us")
	m.set("api.decode_us", p50(spanDecode, 1e3), "us")
	m.set("api.encode_us", p50(spanEncode, 1e3), "us")
	m.set("kernel.diffuse_us", p50(spanKernel, 1e3), "us")
	for _, stage := range []string{"create", "append", "seal", "query", "delete"} {
		m.set("cycle."+stage+"_ms", p50("cycle."+stage, 1e6), "ms")
	}
	n := float64(max(ops, 1))
	m.set("api.req_bytes_per_op", float64(req)/n, "B")
	m.set("api.resp_bytes_per_op", float64(resp)/n, "B")
	m.set("service.cache_hit_share", float64(hits)/float64(max(queries, 1)), "ratio")
	m.set("kernel.pushes_per_op", float64(work.pushes)/n, "count")
	m.set("kernel.work_volume_per_op", work.workVolume/n, "count")
	m.set("kernel.support_per_op", float64(work.support)/n, "count")
	m.set("kernel.ns_per_push", sum(series[spanKernel])/float64(max(work.pushes, 1)), "ns")
	m.set("kernel.share_of_handler", (p50(spanKernel, 1)+p50(spanSweep, 1))/math.Max(p50(spanHandler, 1), 1), "ratio")
}

// checkValidity checks that the workload stressed what it was built to
// stress. A workload whose cache behaviour is off measures something
// else, which fails the run; the kernel's share of the handler moves
// with the code under test, so leaving its band only warns.
func checkValidity(workload string, m metricSet, res *result) {
	hit := m["service.cache_hit_share"].Value
	share := m["kernel.share_of_handler"].Value
	fail := func(format string, args ...any) {
		res.Correct = false
		res.warnings = append(res.warnings, "invalid: "+fmt.Sprintf(format, args...))
	}
	warn := func(format string, args ...any) { res.warnings = append(res.warnings, fmt.Sprintf(format, args...)) }
	switch workload {
	case "shallow_miss", "deep_miss", "batch_mmap":
		if hit != 0 {
			fail("%s must never hit the cache, hit share is %v", workload, hit)
		}
	case "hot_hit":
		if hit < 0.99 {
			fail("hot_hit must hit the cache on >= 99%% of requests, hit share is %v", hit)
		}
	}
	switch {
	case workload == "deep_miss" && share < 0.8:
		warn("deep_miss is meant to be diffusion-bound: kernel and sweep share of the handler is %.2f < 0.8", share)
	case workload == "shallow_miss" && share > 0.4:
		warn("shallow_miss is meant to be plumbing-bound: kernel and sweep share of the handler is %.2f > 0.4", share)
	}
	if self := m["service.self_us"].Value; self < 0 {
		warn("replayed layers exceed the handler: service.self_us is %.1f", self)
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1e3, err
		}
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}
