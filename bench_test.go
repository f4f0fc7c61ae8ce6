// Benchmarks of the repository's own engines: the push, sweep, nibble,
// heat-kernel and batch kernels against their map-based baselines, the
// parallel NCP profile engines, snapshot persistence, and graphd's ppr
// path in process. The paper's claims are asserted by the claim tests in
// internal/experiments, not timed here.
//
// Run with `go test -run NONE -bench=. -benchmem`.
package repro

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/gstore"
	"repro/internal/kernel"
	"repro/internal/ncp"
	"repro/internal/persist"
	"repro/internal/service"
)

// ---- parallel NCP profile engine (serial vs. worker-pool fan-out) ----

var ncpBench struct {
	once sync.Once
	g    *graph.Graph
}

// ncpBenchGraph builds the parallel-NCP benchmark substrate: a stochastic
// Kronecker (R-MAT) graph with ≥ 100k edges, the scale where the profile
// engines' fan-out across cores is worth measuring.
func ncpBenchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	ncpBench.once.Do(func() {
		rng := rand.New(rand.NewSource(1))
		g, err := gen.Kronecker(gen.KroneckerConfig{Levels: 14, Edges: 150000}, rng)
		if err != nil {
			panic(fmt.Sprintf("bench fixture kronecker graph: %v", err))
		}
		ncpBench.g = g
	})
	if ncpBench.g.M() < 100000 {
		b.Fatalf("benchmark graph has m=%d edges, want >= 100k", ncpBench.g.M())
	}
	return ncpBench.g
}

func ncpBenchWorkerGrid() []int {
	grid := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		if n > 4 {
			grid = append(grid, 4)
		}
		grid = append(grid, n)
	}
	return grid
}

// BenchmarkNCPSpectralProfileWorkers compares the serial spectral profile
// (workers=1) against the par.ForEachCtx fan-out over all (α, seed) sweeps.
// The profiles are identical across worker counts (the determinism test
// in internal/ncp asserts it); on a ≥ 4-core machine the parallel run
// should win roughly linearly, since the sweeps are independent.
func BenchmarkNCPSpectralProfileWorkers(b *testing.B) {
	g := ncpBenchGraph(b)
	for _, workers := range ncpBenchWorkerGrid() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var clusters int
			for i := 0; i < b.N; i++ {
				prof, err := ncp.SpectralProfile(context.Background(), g, ncp.SpectralConfig{
					Seeds: 32, Workers: workers, BaseSeed: 7,
				}, nil)
				if err != nil {
					b.Fatal(err)
				}
				clusters = len(prof.Clusters)
			}
			b.Logf("spectral workers=%d: %d clusters on n=%d m=%d", workers, clusters, g.N(), g.M())
		})
	}
}

// BenchmarkNCPFlowProfileWorkers compares the serial flow profile against
// the limiter-bounded parallel bisection recursion plus the ball-seed
// fan-out. The shallow depth keeps one iteration tractable; the root
// bisection is inherently serial, so the speedup here is bounded by the
// ball-seed and subtree shares of the runtime (Amdahl), not linear.
func BenchmarkNCPFlowProfileWorkers(b *testing.B) {
	g := ncpBenchGraph(b)
	for _, workers := range ncpBenchWorkerGrid() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var clusters int
			for i := 0; i < b.N; i++ {
				prof, err := ncp.FlowProfile(context.Background(), g, ncp.FlowConfig{
					BallSeeds: 2, MaxDepth: 3, Workers: workers, BaseSeed: 7,
				}, nil)
				if err != nil {
					b.Fatal(err)
				}
				clusters = len(prof.Clusters)
			}
			b.Logf("flow workers=%d: %d clusters on n=%d m=%d", workers, clusters, g.N(), g.M())
		})
	}
}

// ---- persistence: binary snapshot load vs text edge-list parse ----

var persistBench struct {
	once     sync.Once
	snapPath string
	textPath string
	n, m     int
	err      error
}

// persistBenchFiles writes the ≥100k-edge Kronecker bench graph once in
// both on-disk formats and returns the paths. Cold-start latency is the
// whole point of the snapshot format, so the benchmark measures exactly
// the two loaders cmd/graphd -load dispatches between.
func persistBenchFiles(b *testing.B) (snapPath, textPath string, n, m int) {
	b.Helper()
	g := ncpBenchGraph(b)
	persistBench.once.Do(func() {
		dir, err := os.MkdirTemp("", "persist-bench-*")
		if err != nil {
			persistBench.err = err
			return
		}
		persistBench.snapPath = filepath.Join(dir, "bench.gsnap")
		persistBench.textPath = filepath.Join(dir, "bench.txt")
		if err := persist.WriteSnapshotFile(persistBench.snapPath, g); err != nil {
			persistBench.err = err
			return
		}
		f, err := os.Create(persistBench.textPath)
		if err != nil {
			persistBench.err = err
			return
		}
		if err := g.WriteEdgeList(f); err != nil {
			persistBench.err = err
			return
		}
		persistBench.err = f.Close()
		persistBench.n, persistBench.m = g.N(), g.M()
	})
	if persistBench.err != nil {
		b.Fatal(persistBench.err)
	}
	return persistBench.snapPath, persistBench.textPath, persistBench.n, persistBench.m
}

// BenchmarkPersistSnapshotLoad times a graphd cold start per graph: read
// + checksum + CSR-validate the binary snapshot. Compare against
// BenchmarkPersistEdgeListParse — the snapshot path must win, since it
// skips tokenizing, sorting and merging.
func BenchmarkPersistSnapshotLoad(b *testing.B) {
	snapPath, _, n, m := persistBenchFiles(b)
	if fi, err := os.Stat(snapPath); err == nil {
		b.SetBytes(fi.Size())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := persist.ReadCompactFile(snapPath)
		if err != nil {
			b.Fatal(err)
		}
		if g.N() != n || g.M() != m {
			b.Fatalf("loaded n=%d m=%d, want n=%d m=%d", g.N(), g.M(), n, m)
		}
	}
	b.Logf("persist: snapshot load of n=%d m=%d kronecker graph", n, m)
}

// BenchmarkPersistEdgeListParse times the legacy cold start: parse the
// text edge list (tokenize every line, sort, merge, build CSR).
func BenchmarkPersistEdgeListParse(b *testing.B) {
	_, textPath, n, m := persistBenchFiles(b)
	if fi, err := os.Stat(textPath); err == nil {
		b.SetBytes(fi.Size())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := graph.ReadEdgeListFile(textPath)
		if err != nil {
			b.Fatal(err)
		}
		if g.N() != n || g.M() != m {
			b.Fatalf("parsed n=%d m=%d, want n=%d m=%d", g.N(), g.M(), n, m)
		}
	}
	b.Logf("persist: edge-list parse of n=%d m=%d kronecker graph", n, m)
}

// BenchmarkPersistSnapshotWrite times sealing's durability cost: encode
// + checksum + fsync + atomic rename of one snapshot.
func BenchmarkPersistSnapshotWrite(b *testing.B) {
	g := ncpBenchGraph(b)
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := persist.WriteSnapshotFile(filepath.Join(dir, "w.gsnap"), g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPersistWALAppend times the per-batch durability cost of the
// streaming path: encode + checksum + fsync one 1000-edge record.
func BenchmarkPersistWALAppend(b *testing.B) {
	dir := b.TempDir()
	w, err := persist.CreateWAL(filepath.Join(dir, "w.wal"), 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	batch := make([]persist.Edge, 1000)
	for i := range batch {
		batch[i] = persist.Edge{U: i, V: i + 1, W: 1}
	}
	b.SetBytes(int64(len(batch) * 24))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.AppendBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- kernel: indexed sparse workspaces vs the legacy map vectors ----

// benchPushMap is the pre-kernel map-based ACL push, with the kernel's
// push rule (a node the lazy step would re-queue is settled in closed
// form), kept as the allocation/latency baseline for BenchmarkPushMap
// (the kernel engine is required to reproduce it bit for bit; the
// parity tests in internal/kernel assert that). Twin copy: mapPush in
// internal/kernel/maporacle_test.go is the same code serving as the
// correctness oracle — change both together.
func benchPushMap(g *graph.Graph, seeds []int, alpha, eps float64) (map[int]float64, int) {
	p := make(map[int]float64)
	r := make(map[int]float64)
	w := 1 / float64(len(seeds))
	for _, u := range seeds {
		r[u] += w
	}
	queue := sortedNodes(r)
	inQueue := make(map[int]bool)
	for _, u := range queue {
		inQueue[u] = true
	}
	pushes := 0
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		inQueue[u] = false
		du := g.Degree(u)
		if du == 0 {
			p[u] += r[u]
			delete(r, u)
			continue
		}
		if r[u] < eps*du {
			continue
		}
		ru := r[u]
		spread := (1 - alpha) * ru / 2
		if spread < eps*du {
			p[u] += alpha * ru
			r[u] = spread
		} else {
			// Settle u: its own lazy steps, summed in closed form.
			p[u] += 2 * alpha / (1 + alpha) * ru
			delete(r, u)
			spread = (1 - alpha) / (1 + alpha) * ru
		}
		it := g.Neighbors(u)
		for v, wt, ok := it.Next(); ok; v, wt, ok = it.Next() {
			r[v] += spread * wt / du
			if r[v] >= eps*g.Degree(v) && !inQueue[v] {
				queue = append(queue, v)
				inQueue[v] = true
			}
		}
		pushes++
	}
	return p, pushes
}

// benchWalkMap is one legacy map-based lazy-walk step + truncation with
// iteration pinned to sorted order, the baseline step shared by the
// Nibble and heat-kernel map baselines below. Twin copy: mapWalkStep in
// internal/kernel/maporacle_test.go — change both together.
func benchWalkMap(g *graph.Graph, q map[int]float64, eps float64) map[int]float64 {
	keys := sortedNodes(q)
	next := make(map[int]float64, len(q)*2)
	for _, u := range keys {
		mass := q[u]
		du := g.Degree(u)
		if du == 0 {
			next[u] += mass
			continue
		}
		next[u] += mass / 2
		it := g.Neighbors(u)
		for v, wt, ok := it.Next(); ok; v, wt, ok = it.Next() {
			next[v] += mass / 2 * wt / du
		}
	}
	for u, mass := range next {
		if mass < eps*g.Degree(u) {
			delete(next, u)
		}
	}
	return next
}

// sortedNodes returns the nodes of v in ascending order.
func sortedNodes(v map[int]float64) []int {
	out := make([]int, 0, len(v))
	for u := range v {
		out = append(out, u)
	}
	sort.Ints(out)
	return out
}

// BenchmarkPushMap measures the legacy map-based ACL push on the
// ≥100k-edge Kronecker graph: one hash probe plus amortized map growth
// per touched node, every run from a cold sparse vector.
func BenchmarkPushMap(b *testing.B) {
	g := ncpBenchGraph(b)
	seed := []int{g.N() / 2}
	b.ReportAllocs()
	b.ResetTimer()
	var support int
	for i := 0; i < b.N; i++ {
		p, _ := benchPushMap(g, seed, 0.1, 1e-4)
		support = len(p)
	}
	b.Logf("kernel: map push support %d on n=%d m=%d", support, g.N(), g.M())
}

// BenchmarkPushIndexed measures the same push on the kernel's pooled
// indexed workspace — the steady-state configuration every layer
// (ncp, graphd) now runs: dense epoch-stamped scratch, reset in
// O(touched), no allocation in the inner loop. The acceptance bar is
// ≥2x fewer allocs/op and lower ns/op than BenchmarkPushMap.
func BenchmarkPushIndexed(b *testing.B) {
	g := ncpBenchGraph(b)
	seed := []int{g.N() / 2}
	pool := kernel.NewPool(g.N())
	pool.Put(pool.Get()) // pre-warm one workspace
	b.ReportAllocs()
	b.ResetTimer()
	var support int
	for i := 0; i < b.N; i++ {
		ws := pool.Get()
		if _, err := (kernel.PushACL{Alpha: 0.1, Eps: 1e-4}).Diffuse(g, ws, seed); err != nil {
			b.Fatal(err)
		}
		support = ws.PSupport()
		pool.Put(ws)
	}
	b.Logf("kernel: indexed push support %d on n=%d m=%d", support, g.N(), g.M())
}

// deepSweepSeeds is how many finished deep pushes BenchmarkSweepWorkspace
// rotates through, so successive sweeps do not find the previous one's
// rows and stamps in cache.
const deepSweepSeeds = 16

// BenchmarkSweepWorkspace measures the sweep half of a deep ppr reply —
// the kernel's workspace sweep (SweepOrderP, SweepBest, then the kept
// set copied with SweepNodes) over the finished push of a G16-scale
// Kronecker graph at eps 1e-6 (support in the thousands) — on each
// storage backend. The sweep reads the P plane and writes only sweep
// scratch, so each prepared workspace is swept again and again; what
// must hold is B/op ≈ the returned set and allocs/op independent of n
// (TestMaterialisationIsLocal in internal/service pins the latter).
func BenchmarkSweepWorkspace(b *testing.B) {
	g, err := gen.Kronecker(gen.KroneckerConfig{Levels: 16, Edges: 600000}, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "n64k"+persist.SnapshotExt)
	if err := persist.WriteSnapshotFile(path, g); err != nil {
		b.Fatal(err)
	}
	for _, kind := range []gstore.Kind{gstore.KindCompact, gstore.KindMmap} {
		b.Run(string(kind), func(b *testing.B) {
			// Open each backend from the snapshot, the way graphd's
			// recovery path would.
			var bg gstore.Graph
			switch kind {
			case gstore.KindCompact:
				bg, err = persist.ReadCompactFile(path)
			case gstore.KindMmap:
				bg, err = persist.OpenMapped(path)
			}
			if err != nil {
				b.Fatal(err)
			}
			defer bg.Close()
			wss := make([]*kernel.Workspace, deepSweepSeeds)
			support := 0
			for i := range wss {
				wss[i] = kernel.NewWorkspace(bg.N())
				seed := (g.N()/2 + i*4099) % g.N()
				for g.Degree(seed) == 0 {
					seed = (seed + 1) % g.N()
				}
				st, err := kernel.PushACL{Alpha: 0.1, Eps: 1e-6}.Diffuse(bg, wss[i], []int{seed})
				if err != nil {
					b.Fatal(err)
				}
				support += st.MaxSupport
				if sweepWorkspace(bg, wss[i]) == nil { // warm the scratch
					b.Fatal("no sweep cut")
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if sweepWorkspace(bg, wss[i%len(wss)]) == nil {
					b.Fatal("no sweep cut")
				}
			}
			b.Logf("backend=%s mean support %d on n=%d m=%d", kind, support/len(wss), g.N(), g.M())
		})
	}
}

// sweepWorkspace is the sweep of a ppr reply: the best cut of ws's
// output plane, its set copied out (nil when there is no cut).
func sweepWorkspace(g gstore.Graph, ws *kernel.Workspace) []int {
	ws.SweepOrderP(g)
	prefix, _ := ws.SweepBest(g)
	if prefix == 0 {
		return nil
	}
	return ws.SweepNodes(make([]int, 0, prefix), prefix)
}

// BenchmarkNibble compares the truncated-walk engine on its two sparse
// representations: the legacy per-step maps against the kernel
// workspace.
func BenchmarkNibble(b *testing.B) {
	g := ncpBenchGraph(b)
	seeds := []int{g.N() / 2}
	const eps, steps = 1e-5, 25
	b.Run("map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q := map[int]float64{seeds[0]: 1}
			for s := 0; s < steps && len(q) > 0; s++ {
				q = benchWalkMap(g, q, eps)
			}
		}
	})
	b.Run("indexed", func(b *testing.B) {
		pool := kernel.NewPool(g.N())
		pool.Put(pool.Get())
		b.ReportAllocs()
		// The pool warmup above allocates a full n-sized workspace; at 1x
		// benchtime b.N is tiny, so without a timer reset that one-time
		// setup dominates allocs/op and records a ~kB/op artifact.
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ws := pool.Get()
			if _, err := (kernel.NibbleWalk{Eps: eps, Steps: steps}).Diffuse(g, ws, seeds); err != nil {
				b.Fatal(err)
			}
			pool.Put(ws)
		}
	})
}

// BenchmarkHeatKernel compares the truncated Taylor heat-kernel engine
// on maps vs the kernel workspace.
func BenchmarkHeatKernel(b *testing.B) {
	g := ncpBenchGraph(b)
	seeds := []int{g.N() / 2}
	const tVal, eps = 5.0, 1e-5
	b.Run("map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cur := map[int]float64{seeds[0]: 1}
			out := map[int]float64{seeds[0]: math.Exp(-tVal)}
			weight := math.Exp(-tVal)
			for kk := 1; kk <= 40 && len(cur) > 0; kk++ {
				cur = benchWalkMap(g, cur, eps)
				weight *= tVal / float64(kk)
				for _, u := range sortedNodes(cur) {
					out[u] += weight * cur[u]
				}
			}
		}
	})
	b.Run("indexed", func(b *testing.B) {
		pool := kernel.NewPool(g.N())
		pool.Put(pool.Get())
		b.ReportAllocs()
		// Same timer reset as BenchmarkNibble/indexed: keep the pool
		// warmup out of the measured window.
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ws := pool.Get()
			if _, err := (kernel.HeatKernel{T: tVal, Eps: eps}).DiffuseContext(context.Background(), g, ws, seeds); err != nil {
				b.Fatal(err)
			}
			pool.Put(ws)
		}
	})
}

// BenchmarkPushBatch measures the batch engine's per-seed cost the way
// graphbench's batch_mmap meets it: the G16 Kronecker graph on the
// compact backend, non-isolated seeds in shuffled order, a fresh window
// of K seeds every iteration — so no seed's rows or planes are warm from
// the iteration before — on one worker. Each method's "sequential"
// sub-benchmark is the baseline, one Diffuse per iteration on one
// workspace; BatchDiffuser.Run is a loop of that same call, so us/seed
// at K ∈ {1, 8, 64} must sit on the baseline, with Run's fixed cost
// (two allocations) visible only at K=1. A warmup pass keeps pool growth
// out of the measured window.
func BenchmarkPushBatch(b *testing.B) {
	g, err := gen.Kronecker(gen.KroneckerConfig{Levels: 16}, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	var nodes []int
	for u := 0; u < g.N(); u++ {
		if g.Degree(u) > 0 {
			nodes = append(nodes, u)
		}
	}
	rand.New(rand.NewSource(1)).Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
	// window returns the i-th run of k consecutive seeds, wrapping.
	window := func(i, k int) []int {
		lo := i * k % (len(nodes) - k)
		return nodes[lo : lo+k]
	}
	perSeed := func(b *testing.B, k int) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N*k), "us/seed")
	}
	pool := kernel.NewPool(g.N())
	methods := []struct {
		name   string
		method kernel.Diffuser
	}{
		{"push", kernel.PushACL{Alpha: 0.1, Eps: 1e-4}},
		{"nibble", kernel.NibbleWalk{Eps: 1e-4, Steps: 20}},
		{"heat", kernel.HeatKernel{T: 5, Eps: 1e-4}},
	}
	for _, m := range methods {
		b.Run(m.name+"/sequential", func(b *testing.B) {
			ws := pool.Get()
			defer pool.Put(ws)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.method.DiffuseContext(context.Background(), g, ws, window(i, 1)); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			perSeed(b, 1)
		})
		for _, k := range []int{1, 8, 64} {
			b.Run(fmt.Sprintf("%s/K=%d", m.name, k), func(b *testing.B) {
				bd := kernel.BatchDiffuser{Method: m.method, Workers: 1}
				if _, err := bd.Run(context.Background(), g, pool, window(0, k), nil); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := bd.Run(context.Background(), g, pool, window(i, k), nil); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				perSeed(b, k)
			})
		}
	}
}

// BenchmarkGraphdPPRSteadyState drives the full graphd ppr query path —
// HTTP mux, decode/validate, pooled kernel push, sweep, JSON encode —
// in process, with a distinct seed per request so the LRU cache never
// hits and every iteration exercises the compute path. allocs/op is the
// serving-layer regression guard: the diffusion itself borrows pooled
// workspace scratch, so steady-state allocations are request plumbing
// (JSON, response assembly), not sparse-vector churn.
func BenchmarkGraphdPPRSteadyState(b *testing.B) {
	benchGraphdPPR(b, service.Config{}, false)
}

// BenchmarkGraphdPPRSteadyStateNoTelemetry is the same workload with
// DisableTelemetry set — the delta against BenchmarkGraphdPPRSteadyState
// is the full cost of the observability layer (request-ID mint +
// context carry, work histograms, trace ring), budgeted at <= 2% ns/op.
func BenchmarkGraphdPPRSteadyStateNoTelemetry(b *testing.B) {
	benchGraphdPPR(b, service.Config{DisableTelemetry: true}, false)
}

// BenchmarkGraphdPPRCachedHit repeats one request so every iteration
// after the first answers from the LRU cache: mux + decode + cache probe
// + canned bytes. This is the latency floor of the serving layer and
// the allocation guard for the hit path.
func BenchmarkGraphdPPRCachedHit(b *testing.B) {
	benchGraphdPPR(b, service.Config{}, true)
}

// benchGraphdPPR drives the full graphd ppr query path — HTTP mux,
// decode/validate, pooled kernel push, sweep, JSON encode — in process.
// With cached=false a distinct seed per request defeats the LRU cache so
// every iteration exercises the compute path; allocs/op is then the
// serving-layer regression guard (the diffusion itself borrows pooled
// workspace scratch, so steady-state allocations are request plumbing,
// not sparse-vector churn). With cached=true the same request repeats
// and measures the hit path.
func benchGraphdPPR(b *testing.B, cfg service.Config, cached bool) {
	g := ncpBenchGraph(b)
	srv, err := service.NewServer(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	if _, err := srv.Store().Put("bench", g); err != nil {
		b.Fatal(err)
	}
	h := srv.Handler()
	// Seeds cycle over non-isolated nodes: a zero-degree seed has no
	// sweepable support and would (correctly) answer 400.
	var seedIDs []int
	for u := 0; u < g.N(); u++ {
		if g.Degree(u) > 0 {
			seedIDs = append(seedIDs, u)
		}
	}
	// Warm up one request so pools and mux state are steady.
	do := func(seed int) int {
		body := fmt.Sprintf(`{"seeds":[%d],"alpha":0.1,"eps":0.0001,"sweep":true,"topk":8}`, seed)
		req := httptest.NewRequest("POST", "/v1/graphs/bench/ppr", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}
	if code := do(seedIDs[0]); code != 200 {
		b.Fatalf("warmup request returned %d", code)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seed := seedIDs[i%len(seedIDs)]
		if cached {
			seed = seedIDs[0]
		}
		if code := do(seed); code != 200 {
			b.Fatalf("request %d returned %d", i, code)
		}
	}
}
