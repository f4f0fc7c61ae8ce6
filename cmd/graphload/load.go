package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/pkg/api"
	"repro/pkg/client"
)

// opMix is a normalized categorical distribution over query kinds,
// stored as cumulative thresholds so one uniform draw picks an op.
type opMix struct {
	ops    []string
	cumul  []float64 // cumulative weights, last element == 1
	source string
}

// parseMix parses "ppr=0.8,localcluster=0.15,diffuse=0.05" into an
// opMix, normalizing weights so they need not sum to one.
func parseMix(spec string) (*opMix, error) {
	m := &opMix{source: spec}
	var total float64
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		op, ws, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("mix entry %q: want op=weight", part)
		}
		switch op {
		case "ppr", "localcluster", "diffuse", "batch":
		default:
			return nil, fmt.Errorf("mix entry %q: unknown op (want ppr, localcluster, diffuse or batch)", part)
		}
		w, err := strconv.ParseFloat(ws, 64)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("mix entry %q: bad weight", part)
		}
		if w == 0 {
			continue
		}
		total += w
		m.ops = append(m.ops, op)
		m.cumul = append(m.cumul, total)
	}
	if total <= 0 {
		return nil, fmt.Errorf("mix %q has no positive weights", spec)
	}
	for i := range m.cumul {
		m.cumul[i] /= total
	}
	m.cumul[len(m.cumul)-1] = 1 // exact, despite rounding
	return m, nil
}

// pick draws an op from the mix with the caller's RNG.
func (m *opMix) pick(rng *rand.Rand) string {
	u := rng.Float64()
	for i, c := range m.cumul {
		if u <= c {
			return m.ops[i]
		}
	}
	return m.ops[len(m.ops)-1]
}

// recorder accumulates post-warmup completions. Latencies are held as
// raw samples (milliseconds) so the report computes exact percentiles;
// at CI-scale request counts (10^4..10^5) the memory is trivial.
type recorder struct {
	mu        sync.Mutex
	latencies []float64 // ms, successes only
	errors    uint64
	dropped   uint64
}

func (r *recorder) success(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	r.mu.Lock()
	r.latencies = append(r.latencies, ms)
	r.mu.Unlock()
}

// run drives the open loop: a single dispatcher draws (op, seed) pairs
// and launches each request at its scheduled arrival time, bounded by a
// semaphore of maxInflight permits. Completions inside the measurement
// window (after warmup) land in the recorder.
func run(c *client.Client, cfg loadConfig, mix *opMix, rate float64, warmup, duration time.Duration, maxInflight int, seed int64, nodes int) report {
	rng := rand.New(rand.NewSource(seed))
	interval := time.Duration(float64(time.Second) / rate)
	if interval <= 0 {
		interval = time.Nanosecond
	}
	sem := make(chan struct{}, maxInflight)
	rec := &recorder{}
	var wg sync.WaitGroup

	start := time.Now()
	measureFrom := start.Add(warmup)
	end := measureFrom.Add(duration)
	// Absolute schedule: next is advanced by a fixed interval from the
	// run's start, so a slow request does not push later arrivals back
	// (that would silently close the loop).
	next := start
	for {
		now := time.Now()
		if !now.Before(end) {
			break
		}
		if now.Before(next) {
			time.Sleep(next.Sub(now))
		}
		next = next.Add(interval)
		op := mix.pick(rng)
		seedNode := rng.Intn(nodes)
		select {
		case sem <- struct{}{}:
		default:
			// Inflight bound hit: the arrival is dropped, not deferred —
			// an open loop never converts overload into lower offered load.
			if time.Now().After(measureFrom) {
				atomic.AddUint64(&rec.dropped, 1)
			}
			continue
		}
		wg.Add(1)
		go func(op string, seedNode int) {
			defer wg.Done()
			defer func() { <-sem }()
			t0 := time.Now()
			err := issue(c, cfg.Graph, op, seedNode, nodes)
			d := time.Since(t0)
			if t0.Before(measureFrom) {
				return // warmup completion; discard either way
			}
			if err != nil {
				atomic.AddUint64(&rec.errors, 1)
				return
			}
			rec.success(d)
		}(op, seedNode)
	}
	wg.Wait()
	elapsed := time.Since(measureFrom)
	if elapsed > duration {
		elapsed = duration // tail requests finish past end; qps uses the window
	}
	return buildReport(cfg, rec, elapsed)
}

// batchOpSeeds and batchOpStride shape the "batch" op: each request
// carries batchOpSeeds seeds, spread batchOpStride apart so they land
// in distinct neighborhoods rather than one cache line of node ids.
const (
	batchOpSeeds  = 8
	batchOpStride = 101
)

// issue sends one query. Request parameters lean on server-side
// Normalize defaults (alpha 0.15, eps 1e-4) so the load is the paper's
// canonical strongly-local regime.
func issue(c *client.Client, graph, op string, seedNode, nodes int) error {
	ctx := context.Background()
	var err error
	switch op {
	case "ppr":
		_, err = c.Graphs.PPR(ctx, graph, api.PPRRequest{Seeds: []int{seedNode}})
	case "localcluster":
		_, err = c.Graphs.LocalCluster(ctx, graph, api.LocalClusterRequest{Method: "ppr", Seeds: []int{seedNode}})
	case "diffuse":
		_, err = c.Graphs.Diffuse(ctx, graph, api.DiffuseRequest{Kind: "heat", Seeds: []int{seedNode}, T: 3})
	case "batch":
		// Eight distinct seeds fanned out from the drawn one — the
		// batched twin of eight single-seed ppr arrivals, exercising
		// graphd's batch path under load.
		seeds := make([]int, batchOpSeeds)
		for i := range seeds {
			seeds[i] = (seedNode + i*batchOpStride) % nodes
		}
		_, err = c.Graphs.PPRBatch(ctx, graph, api.PPRBatchRequest{Seeds: seeds})
	default:
		err = fmt.Errorf("unknown op %q", op)
	}
	return err
}

// percentile returns the q-quantile (0 < q <= 1) of sorted samples via
// the nearest-rank method: the smallest sample with at least q of the
// mass at or below it.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(float64(len(sorted))*q+0.9999999) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func buildReport(cfg loadConfig, rec *recorder, window time.Duration) report {
	rec.mu.Lock()
	lat := append([]float64(nil), rec.latencies...)
	rec.mu.Unlock()
	sort.Float64s(lat)
	errors := atomic.LoadUint64(&rec.errors)
	dropped := atomic.LoadUint64(&rec.dropped)
	n := uint64(len(lat))
	total := n + errors + dropped

	var m loadMetrics
	m.Requests = n
	m.Errors = errors
	m.Dropped = dropped
	if window > 0 {
		m.QPS = round3(float64(n) / window.Seconds())
	}
	if total > 0 {
		m.ErrorRate = round5(float64(errors+dropped) / float64(total))
	}
	if n > 0 {
		var sum float64
		for _, v := range lat {
			sum += v
		}
		m.LatencyMS = latencySummary{
			P50:  round3(percentile(lat, 0.50)),
			P90:  round3(percentile(lat, 0.90)),
			P99:  round3(percentile(lat, 0.99)),
			P999: round3(percentile(lat, 0.999)),
			Mean: round3(sum / float64(n)),
			Max:  round3(lat[n-1]),
		}
	}
	return report{Kind: "graphload", Config: cfg, Metrics: m}
}
