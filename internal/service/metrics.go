package service

import (
	"cmp"
	"fmt"
	"io"
	"maps"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/gstore"
	"repro/internal/persist"
	"repro/pkg/api"
)

// latencyBuckets are the histogram upper bounds in seconds, spanning
// sub-millisecond cache hits to multi-minute jobs.
var latencyBuckets = []float64{
	0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 60, 300,
}

// workBuckets are the upper bounds for the diffusion-work histograms
// (pushes, Σ deg work volume, support size). The paper's bound is
// 1/(ε·α) independent of n, so decades from a single push up to 10^8
// cover everything a strongly-local query can legally do.
var workBuckets = []float64{
	1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8,
}

// persistBuckets are the decade upper bounds for the durability
// histograms, spanning a page-cache hit (~µs) to a stalled fsync on
// contended storage (~10s).
var persistBuckets = []float64{
	1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1, 10,
}

type histogram struct {
	buckets []float64 // upper bounds, ascending
	counts  []uint64  // one per bucket, plus overflow at the end
	sum     float64
	total   uint64
}

func newHistogram(buckets []float64) *histogram {
	return &histogram{buckets: buckets, counts: make([]uint64, len(buckets)+1)}
}

func (h *histogram) observe(v float64) {
	i := sort.SearchFloat64s(h.buckets, v)
	h.counts[i]++
	h.sum += v
	h.total++
}

// requestKey is the composite label set of graphd_requests_total.
// Struct keys keep ObserveRequest allocation-free on the hot path
// (locked by BenchmarkObserveRequest).
type requestKey struct {
	pattern string
	code    int
}

// workKey is the composite label set of the graphd_query_* work
// histograms.
type workKey struct {
	method  string // diffusion method: push, nibble, heat, dense-*
	cache   string // cache outcome: hit, shared, miss
	backend string // storage backend the graph was served from
}

// workHists holds the three per-label work histograms — pushes, work
// volume, support, as workSeries names them — so one map lookup serves
// one observation.
type workHists [3]*histogram

var workSeries = [3]string{"graphd_query_pushes", "graphd_query_work_volume", "graphd_query_support"}

// Metrics collects the daemon's counters: request totals and latency
// histograms by route, diffusion work histograms by method and cache
// outcome, cache statistics, job timings and queue depth. Everything
// is exposed in Prometheus text format by WriteTo.
type Metrics struct {
	mu        sync.Mutex
	requests  map[requestKey]uint64
	latencies map[string]*histogram // by pattern
	jobTimes  map[string]*histogram // by job type
	jobWaits  map[string]*histogram // queue wait by job type
	queryWork map[workKey]*workHists
	// Durability telemetry, array-indexed by persist.Op so ObservePersist
	// stays allocation-free (locked by TestObservePersistZeroAllocs).
	persistHists [persist.NumOps]*histogram
	persistBytes [persist.NumOps]uint64
	started      time.Time
}

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics {
	m := &Metrics{
		requests:  make(map[requestKey]uint64),
		latencies: make(map[string]*histogram),
		jobTimes:  make(map[string]*histogram),
		jobWaits:  make(map[string]*histogram),
		queryWork: make(map[workKey]*workHists),
		started:   time.Now(),
	}
	for op := persist.Op(0); op < persist.NumOps; op++ {
		m.persistHists[op] = newHistogram(persistBuckets)
	}
	return m
}

// ObservePersist implements persist.Observer: one durability operation
// (WAL fsync, snapshot write/load, recovery replay) lands in its
// latency histogram and bytes counter.
func (m *Metrics) ObservePersist(op persist.Op, d time.Duration, bytes int64) {
	if op < 0 || op >= persist.NumOps {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.persistHists[op].observe(d.Seconds())
	if bytes > 0 {
		m.persistBytes[op] += uint64(bytes)
	}
}

// ObserveRequest records one served request for the route pattern.
func (m *Metrics) ObserveRequest(pattern string, code int, dur time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests[requestKey{pattern, code}]++
	observeLatency(m.latencies, pattern, dur)
}

// observeLatency records dur in the latency histogram hs holds under
// key, creating it on first use. The caller holds m.mu.
func observeLatency(hs map[string]*histogram, key string, dur time.Duration) {
	h, ok := hs[key]
	if !ok {
		h = newHistogram(latencyBuckets)
		hs[key] = h
	}
	h.observe(dur.Seconds())
}

// ObserveJob records one finished job's wall-clock run time.
func (m *Metrics) ObserveJob(jobType string, dur time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	observeLatency(m.jobTimes, jobType, dur)
}

// ObserveJobWait records how long one job sat in the queue between
// submission and a worker picking it up.
func (m *Metrics) ObserveJobWait(jobType string, dur time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	observeLatency(m.jobWaits, jobType, dur)
}

// ObserveQueryWork records one query's diffusion work accounting under
// its method and cache outcome. Cache hits re-observe the stats stored
// with the cached entry, so the histograms reflect the work each reply
// represents, not just the work freshly performed.
func (m *Metrics) ObserveQueryWork(method, cache, backend string, st *api.WorkStats) {
	if st == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	k := workKey{method, cache, backend}
	wh, ok := m.queryWork[k]
	if !ok {
		wh = &workHists{newHistogram(workBuckets), newHistogram(workBuckets), newHistogram(workBuckets)}
		m.queryWork[k] = wh
	}
	wh[0].observe(float64(st.Pushes))
	wh[1].observe(st.WorkVolume)
	wh[2].observe(float64(st.MaxSupport))
}

// WriteTo renders the registry in Prometheus text exposition format,
// merging in the live cache and job-queue gauges and — when the store
// is durable — the persistence event counters.
func (m *Metrics) WriteTo(w io.Writer, cache *LRUCache, jobs *JobManager, pc *persist.Counters) {
	m.mu.Lock()
	reqKeys := slices.SortedFunc(maps.Keys(m.requests), func(a, b requestKey) int {
		return cmp.Or(cmp.Compare(a.pattern, b.pattern), cmp.Compare(a.code, b.code))
	})
	fmt.Fprintln(w, "# TYPE graphd_requests_total counter")
	for _, k := range reqKeys {
		fmt.Fprintf(w, "graphd_requests_total{route=%q,code=\"%d\"} %d\n", k.pattern, k.code, m.requests[k])
	}
	writeHistograms(w, "graphd_request_seconds", "route", m.latencies)
	writeHistograms(w, "graphd_job_seconds", "type", m.jobTimes)
	writeHistograms(w, "graphd_job_queue_wait_seconds", "type", m.jobWaits)
	writeWorkHistograms(w, m.queryWork)
	for op := persist.Op(0); op < persist.NumOps; op++ {
		h := m.persistHists[op]
		if h.total == 0 {
			continue
		}
		name := "graphd_persist_" + op.String() + "_seconds"
		fmt.Fprintf(w, "# TYPE %s histogram\n", name)
		writeHistogram(w, name, "", h)
		fmt.Fprintf(w, "# TYPE graphd_persist_%s_bytes_total counter\n", op)
		fmt.Fprintf(w, "graphd_persist_%s_bytes_total %d\n", op, m.persistBytes[op])
	}
	uptime := time.Since(m.started).Seconds()
	m.mu.Unlock()

	// The one-sample families; %v prints integers as %d and floats as %g.
	sample := func(name, typ string, v any) { fmt.Fprintf(w, "# TYPE %s %s\n%s %v\n", name, typ, name, v) }
	if cache != nil {
		hits, misses, evictions := cache.Stats()
		sample("graphd_cache_hits_total", "counter", hits)
		sample("graphd_cache_misses_total", "counter", misses)
		sample("graphd_cache_evictions_total", "counter", evictions)
		sample("graphd_cache_entries", "gauge", cache.Len())
		sample("graphd_cache_bytes", "gauge", cache.Bytes())
	}
	if pc != nil {
		sample("graphd_persist_snapshots_written_total", "counter", pc.SnapshotsWritten.Load())
		sample("graphd_persist_snapshots_loaded_total", "counter", pc.SnapshotsLoaded.Load())
		sample("graphd_persist_wal_created_total", "counter", pc.WALCreated.Load())
		sample("graphd_persist_wal_appends_total", "counter", pc.WALAppends.Load())
		sample("graphd_persist_wal_replayed_total", "counter", pc.WALReplayed.Load())
		sample("graphd_persist_quarantined_files_total", "counter", pc.Quarantined.Load())
	}
	gs := gstore.Telemetry()
	sample("graphd_gstore_mapped_bytes", "gauge", gs.MappedBytes())
	sample("graphd_gstore_mapped_graphs", "gauge", gs.MappedGraphs())
	sample("graphd_gstore_finalizer_unmaps_total", "counter", gs.FinalizerUnmaps())
	sample("graphd_gstore_heap_materializations_total", "counter", gs.HeapMaterializations())
	sample("graphd_gstore_open_verifies_total", "counter", gs.OpenVerifies())
	sample("graphd_gstore_open_verify_seconds_total", "counter", gs.OpenVerifySeconds())
	if jobs != nil {
		queued, running, done := jobs.Depths()
		sample("graphd_jobs_queued", "gauge", queued)
		sample("graphd_jobs_running", "gauge", running)
		sample("graphd_jobs_finished_total", "counter", done)
	}
	sample("graphd_uptime_seconds", "gauge", uptime)
}

func writeHistograms(w io.Writer, name, label string, hs map[string]*histogram) {
	if len(hs) == 0 {
		return
	}
	keys := slices.Sorted(maps.Keys(hs))
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	for _, k := range keys {
		writeHistogram(w, name, fmt.Sprintf("%s=%q", label, k), hs[k])
	}
}

// writeWorkHistograms renders the three diffusion-work histograms,
// each labeled by method and cache outcome.
func writeWorkHistograms(w io.Writer, work map[workKey]*workHists) {
	if len(work) == 0 {
		return
	}
	keys := slices.SortedFunc(maps.Keys(work), func(a, b workKey) int {
		return cmp.Or(cmp.Compare(a.method, b.method), cmp.Compare(a.cache, b.cache), cmp.Compare(a.backend, b.backend))
	})
	for i, name := range workSeries {
		fmt.Fprintf(w, "# TYPE %s histogram\n", name)
		for _, k := range keys {
			labels := fmt.Sprintf("method=%q,cache=%q,backend=%q", k.method, k.cache, k.backend)
			writeHistogram(w, name, labels, work[k][i])
		}
	}
}

// writeHistogram renders one histogram series with the given
// preformatted label list (no trailing comma; empty when the bucket
// bound is the only label).
func writeHistogram(w io.Writer, name, labels string, h *histogram) {
	bucket, braced := labels+",", "{"+labels+"}"
	if labels == "" {
		bucket, braced = "", ""
	}
	var cum uint64
	for i, le := range h.buckets {
		cum += h.counts[i]
		fmt.Fprintf(w, "%s_bucket{%sle=\"%g\"} %d\n", name, bucket, le, cum)
	}
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, bucket, h.total)
	fmt.Fprintf(w, "%s_sum%s %g\n", name, braced, h.sum)
	fmt.Fprintf(w, "%s_count%s %d\n", name, braced, h.total)
}
