// Benchmarks: one per reproduced paper artifact (Figure 1 panels a–c and
// the quantitative claims of Sections 3.1–3.3, each asserted by a claim
// test in internal/experiments), plus ablations of the repository's own
// design choices (max-flow engine, push tolerance, worker count).
//
// Run with `go test -bench=. -benchmem`. Under -v each benchmark also
// logs the series or summary row it reproduces, so the bench run doubles
// as a compact regeneration of the tables cmd/experiments prints.
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

	"repro/internal/experiments"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/gstore"
	"repro/internal/kernel"
	"repro/internal/ncp"
	"repro/internal/partition"
	"repro/internal/persist"
	"repro/internal/regsdp"
	"repro/internal/service"
	"repro/internal/spectral"
)

// ---- shared fixtures (built once; benchmarks must not mutate them) ----

var fixtures struct {
	once sync.Once

	fig1Graph *graph.Graph // forest fire, the Fig. 1 substrate
	fig1Prof  *ncp.Profile // spectral profile on fig1Graph
	fig1Flow  *ncp.Profile // flow profile on fig1Graph

	equivSpec *regsdp.Spectrum // ring-of-cliques spectrum for §3.1

	expander *graph.Graph // random regular, §3.2 flow territory
	stringy  *graph.Graph // lollipop, §3.2 spectral pathology
}

func setup(b *testing.B) {
	b.Helper()
	fixtures.once.Do(func() {
		rng := rand.New(rand.NewSource(1))
		g, err := gen.ForestFire(gen.ForestFireConfig{N: 3000, FwdProb: 0.37, Ambs: 1}, rng)
		if err != nil {
			panic(fmt.Sprintf("bench fixture fig1 graph: %v", err))
		}
		fixtures.fig1Graph = g
		sp, err := ncp.SpectralProfile(g, ncp.SpectralConfig{Seeds: 10}, rng)
		if err != nil {
			panic(fmt.Sprintf("bench fixture spectral profile: %v", err))
		}
		fixtures.fig1Prof = sp
		fl, err := ncp.FlowProfile(g, ncp.FlowConfig{}, rng)
		if err != nil {
			panic(fmt.Sprintf("bench fixture flow profile: %v", err))
		}
		fixtures.fig1Flow = fl

		spec, err := regsdp.NewSpectrum(gen.RingOfCliques(5, 8))
		if err != nil {
			panic(fmt.Sprintf("bench fixture spectrum: %v", err))
		}
		fixtures.equivSpec = spec

		ex, err := gen.RandomRegular(2000, 6, rng)
		if err != nil {
			panic(fmt.Sprintf("bench fixture expander: %v", err))
		}
		fixtures.expander = ex
		fixtures.stringy = gen.Lollipop(40, 400)
	})
}

// ---- Figure 1 (panels a, b, c) ----

// BenchmarkFig1aConductance times the Figure 1(a) kernel: computing both
// methods' multi-scale cluster profiles on the synthetic social network.
func BenchmarkFig1aConductance(b *testing.B) {
	setup(b)
	g := fixtures.fig1Graph
	var lastSp, lastFl int
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i) + 7))
		sp, err := ncp.SpectralProfile(g, ncp.SpectralConfig{Seeds: 10}, rng)
		if err != nil {
			b.Fatal(err)
		}
		fl, err := ncp.FlowProfile(g, ncp.FlowConfig{}, rng)
		if err != nil {
			b.Fatal(err)
		}
		lastSp, lastFl = len(sp.Clusters), len(fl.Clusters)
	}
	b.Logf("fig1a: %d spectral clusters, %d flow clusters on n=%d m=%d", lastSp, lastFl, g.N(), g.M())
}

// BenchmarkFig1bAvgPath times the Figure 1(b) kernel: evaluating the
// average-shortest-path niceness measure over the sampled clusters.
func BenchmarkFig1bAvgPath(b *testing.B) {
	setup(b)
	g := fixtures.fig1Graph
	var med float64
	for i := 0; i < b.N; i++ {
		ms, err := ncp.EvaluateProfile(g, fixtures.fig1Prof, 8, 2048)
		if err != nil {
			b.Fatal(err)
		}
		var paths []float64
		for _, m := range ms {
			paths = append(paths, m.AvgPathLen)
		}
		med = median(paths)
	}
	b.Logf("fig1b: median spectral avg-path %.3f over evaluated clusters", med)
}

// BenchmarkFig1cCondRatio times the Figure 1(c) kernel: the external/
// internal conductance ratio over the flow profile's clusters.
func BenchmarkFig1cCondRatio(b *testing.B) {
	setup(b)
	g := fixtures.fig1Graph
	var med float64
	for i := 0; i < b.N; i++ {
		ms, err := ncp.EvaluateProfile(g, fixtures.fig1Flow, 8, 2048)
		if err != nil {
			b.Fatal(err)
		}
		var ratios []float64
		for _, m := range ms {
			ratios = append(ratios, m.ExtIntRatio)
		}
		med = median(ratios)
	}
	b.Logf("fig1c: median flow ext/int ratio %.3f over evaluated clusters", med)
}

// ---- Section 3.1: diffusions solve regularized SDPs exactly ----

// BenchmarkSec31HeatKernelEquiv times one heat-kernel-vs-entropy-SDP
// equivalence check (operator evaluation + closed-form SDP solve).
func BenchmarkSec31HeatKernelEquiv(b *testing.B) {
	setup(b)
	s := fixtures.equivSpec
	var diff float64
	for i := 0; i < b.N; i++ {
		hk, err := regsdp.HeatKernelOperator(s, 2.0)
		if err != nil {
			b.Fatal(err)
		}
		sdp, err := regsdp.Solve(s, regsdp.Entropy, 2.0, 0)
		if err != nil {
			b.Fatal(err)
		}
		diff = regsdp.MaxWeightDiff(hk, sdp)
	}
	b.Logf("sec3.1 heat-kernel vs entropy SDP: max weight diff %.2e (0 = exact equivalence)", diff)
}

// BenchmarkSec31PageRankEquiv times one PageRank-vs-log-det-SDP check,
// including the γ→η calibration.
func BenchmarkSec31PageRankEquiv(b *testing.B) {
	setup(b)
	s := fixtures.equivSpec
	var diff float64
	for i := 0; i < b.N; i++ {
		gamma := 0.2
		pr, err := regsdp.PageRankOperator(s, gamma)
		if err != nil {
			b.Fatal(err)
		}
		eta, err := regsdp.EtaForPageRank(s, gamma)
		if err != nil {
			b.Fatal(err)
		}
		sdp, err := regsdp.Solve(s, regsdp.LogDet, eta, 0)
		if err != nil {
			b.Fatal(err)
		}
		diff = regsdp.MaxWeightDiff(pr, sdp)
	}
	b.Logf("sec3.1 pagerank vs log-det SDP: max weight diff %.2e", diff)
}

// BenchmarkSec31LazyWalkEquiv times one lazy-walk-vs-p-norm-SDP check.
func BenchmarkSec31LazyWalkEquiv(b *testing.B) {
	setup(b)
	s := fixtures.equivSpec
	var diff float64
	for i := 0; i < b.N; i++ {
		lz, err := regsdp.LazyWalkOperator(s, 0.5, 6)
		if err != nil {
			b.Fatal(err)
		}
		eta, p, err := regsdp.EtaForLazyWalk(s, 0.5, 6)
		if err != nil {
			b.Fatal(err)
		}
		sdp, err := regsdp.Solve(s, regsdp.PNorm, eta, p)
		if err != nil {
			b.Fatal(err)
		}
		diff = regsdp.MaxWeightDiff(lz, sdp)
	}
	b.Logf("sec3.1 lazy-walk vs p-norm SDP: max weight diff %.2e", diff)
}

// BenchmarkSec31EarlyStopping times the truncated-power-method
// regularization-path experiment.
func BenchmarkSec31EarlyStopping(b *testing.B) {
	var rows []experiments.Sec31EarlyStopRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Sec31EarlyStopping(1)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(rows) > 0 {
		first, last := rows[0], rows[len(rows)-1]
		b.Logf("sec3.1 early stopping: steps %d→%d, Rayleigh %.4f→%.4f, seed-align %.3f→%.3f",
			first.Steps, last.Steps, first.Rayleigh, last.Rayleigh, first.SeedAlign, last.SeedAlign)
	}
}

// ---- Section 3.2: spectral vs flow partitioning ----

// BenchmarkSec32CheegerSaturation times the stringy-vs-expander Cheeger
// saturation sweep.
func BenchmarkSec32CheegerSaturation(b *testing.B) {
	var rows []experiments.Sec32CheegerRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Sec32CheegerSaturation(1)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.Logf("sec3.2 cheeger: %-12s n=%-5d phi/(lam2/2)=%8.1f flowPhi=%.4f",
			r.Family, r.N, r.RatioToLow, r.FlowPhi)
	}
}

// BenchmarkSec32ExpanderFlow times both partitioners on a constant-degree
// expander, the family where flow pays its O(log n) factor and spectral
// is quadratically fine.
func BenchmarkSec32ExpanderFlow(b *testing.B) {
	setup(b)
	g := fixtures.expander
	var phiSp, phiFl float64
	b.Run("spectral", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := partition.Spectral(g, spectral.FiedlerOptions{})
			if err != nil {
				b.Fatal(err)
			}
			phiSp = res.Conductance
		}
	})
	b.Run("metis+mqi", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := partition.MetisMQI(g, partition.MultilevelOptions{Seed: int64(i) + 1})
			if err != nil {
				b.Fatal(err)
			}
			phiFl = res.Conductance
		}
	})
	b.Logf("sec3.2 expander n=%d: spectral phi=%.4f, metis+mqi phi=%.4f", g.N(), phiSp, phiFl)
}

// BenchmarkSec32QualityNiceness times the whiskered-expander quality-vs-
// niceness comparison (the Figure 1 mechanism in miniature).
func BenchmarkSec32QualityNiceness(b *testing.B) {
	var row *experiments.Sec32QualityNicenessRow
	for i := 0; i < b.N; i++ {
		var err error
		row, err = experiments.Sec32QualityNiceness(1)
		if err != nil {
			b.Fatal(err)
		}
	}
	if row != nil {
		b.Logf("sec3.2 quality/niceness: phi sp=%.4f fl=%.4f | path sp=%.2f fl=%.2f | ratio sp=%.2f fl=%.2f",
			row.SpectralPhi, row.FlowPhi, row.SpectralPath, row.FlowPath, row.SpectralRatio, row.FlowRatio)
	}
}

// ---- Section 3.3: locally-biased partitioning ----

// BenchmarkSec33LocalRuntime times the push algorithm across a 16×
// range of graph sizes at fixed (α, ε): the per-op cost must stay flat
// (work depends on output size, not on n).
func BenchmarkSec33LocalRuntime(b *testing.B) {
	for _, n := range []int{2000, 8000, 32000} {
		rng := rand.New(rand.NewSource(3))
		g, err := gen.ForestFire(gen.ForestFireConfig{N: n, FwdProb: 0.35, Ambs: 1}, rng)
		if err != nil {
			b.Fatal(err)
		}
		cg := gstore.Wrap(g)
		ws := kernel.NewWorkspace(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var work float64
			for i := 0; i < b.N; i++ {
				st, err := kernel.PushACL{Alpha: 0.1, Eps: 1e-4}.Diffuse(cg, ws, []int{n / 2})
				if err != nil {
					b.Fatal(err)
				}
				work = st.WorkVolume
			}
			b.Logf("sec3.3 locality: n=%d push work volume %.0f (should not grow with n)", n, work)
		})
	}
}

// BenchmarkSec33LocalCheeger times the planted-cluster recovery check.
func BenchmarkSec33LocalCheeger(b *testing.B) {
	var rows []experiments.Sec33CheegerRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Sec33LocalCheeger(1)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(rows) > 0 {
		b.Logf("sec3.3 local cheeger: %d seeds, first row philocal=%.4f phiplanted=%.4f jaccard=%.2f",
			len(rows), rows[0].PhiLocal, rows[0].PhiPlanted, rows[0].Jaccard)
	}
}

// BenchmarkSec33MOVvsPush times the MOV-vs-PPR correlation sweep.
func BenchmarkSec33MOVvsPush(b *testing.B) {
	var rows []experiments.Sec33MOVRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Sec33MOVvsPush(1)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.Logf("sec3.3 MOV vs PPR: gamma=%.3f correlation=%.4f", r.Gamma, r.Correlation)
	}
}

// BenchmarkSec33SeedNotInCluster times the counterintuitive-seed
// construction.
func BenchmarkSec33SeedNotInCluster(b *testing.B) {
	var res *experiments.Sec33SeedResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Sec33SeedNotInCluster(1)
		if err != nil {
			b.Fatal(err)
		}
	}
	if res != nil {
		b.Logf("sec3.3 seed-not-in-cluster: seed %d inside=%v clusterSize=%d phi=%.4f",
			res.SeedNode, res.SeedInside, res.ClusterSize, res.Phi)
	}
}

// ---- ablations of this repository's own design choices ----

// BenchmarkAblationMaxFlow times the max-flow engine (Dinic) on the MQI
// network shapes it actually sees (boundary-source, degree-sink). The
// push-relabel alternative is a test-only cross-check in internal/flow.
func BenchmarkAblationMaxFlow(b *testing.B) {
	setup(b)
	g := fixtures.expander
	build := func() (*flow.Network, int, int) {
		n := g.N()
		net := flow.NewNetwork(n + 2)
		g.Edges(func(u, v int, w float64) { _ = net.AddEdge(u, v, w) })
		for u := 0; u < n/4; u++ {
			_ = net.AddArc(n, u, g.Degree(u))
		}
		for u := n / 2; u < n; u++ {
			_ = net.AddArc(u, n+1, 0.3*g.Degree(u))
		}
		return net, n, n + 1
	}
	b.Run("dinic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			net, s, t := build()
			if _, err := net.MaxFlow(s, t); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationPushEps sweeps the push truncation ε — the implicit
// regularization knob of §3.3 — and reports the work/support tradeoff.
func BenchmarkAblationPushEps(b *testing.B) {
	setup(b)
	g := gstore.Wrap(fixtures.fig1Graph)
	for _, eps := range []float64{1e-3, 1e-4, 1e-5} {
		b.Run(fmt.Sprintf("eps=%g", eps), func(b *testing.B) {
			var work float64
			var support int
			for i := 0; i < b.N; i++ {
				ws := kernel.NewWorkspace(g.N())
				st, err := kernel.PushACL{Alpha: 0.1, Eps: eps}.Diffuse(g, ws, []int{17})
				if err != nil {
					b.Fatal(err)
				}
				work, support = st.WorkVolume, ws.PSupport()
			}
			b.Logf("eps=%g: work volume %.0f, support %d", eps, work, support)
		})
	}
}

// BenchmarkAblationBayesRisk times the Perry–Mahoney regularized-
// estimation experiment (reference [36]).
func BenchmarkAblationBayesRisk(b *testing.B) {
	population := gen.RingOfCliques(5, 6)
	var res *regsdp.BayesResult
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i) + 3))
		var err error
		res, err = regsdp.BayesRisk(population, 0.7, []float64{1, 5, 20, 100}, 4, rng)
		if err != nil {
			b.Fatal(err)
		}
	}
	if res != nil {
		b.Logf("bayes risk: unregularized %.4f, best %.4f at eta=%g (improvement %.1f%%)",
			res.UnregularizedRisk, res.BestRisk, res.BestEta, 100*res.Improvement())
	}
}

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
				prof, err := ncp.SpectralProfile(g, ncp.SpectralConfig{
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
				prof, err := ncp.FlowProfile(g, ncp.FlowConfig{
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
		g, err := persist.ReadSnapshotFile(snapPath)
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

// ---- micro-benchmarks of the hot kernels ----

// BenchmarkKernels measures the low-level operations every experiment is
// built from, with allocation counts (-benchmem) as the regression guard.
func BenchmarkKernels(b *testing.B) {
	setup(b)
	g := fixtures.fig1Graph
	lap := spectral.NormalizedLaplacian(g)
	x := make([]float64, g.N())
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	y := make([]float64, g.N())
	b.Run("laplacian-matvec", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			y = lap.MulVec(x, y)
		}
	})
	b.Run("bfs", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.BFS(i % g.N())
		}
	})
	b.Run("sweep-cut", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := partition.SweepCut(g, x); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("conductance", func(b *testing.B) {
		b.ReportAllocs()
		inS := make([]bool, g.N())
		for i := 0; i < g.N()/3; i++ {
			inS[i] = true
		}
		for i := 0; i < b.N; i++ {
			g.Conductance(inS)
		}
	})
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
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
		nbrs, ws := g.Neighbors(u)
		for i, v := range nbrs {
			r[v] += spread * ws[i] / du
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
		nbrs, ws := g.Neighbors(u)
		for i, v := range nbrs {
			next[v] += mass / 2 * ws[i] / du
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
	g := gstore.Wrap(ncpBenchGraph(b))
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
			defer gstore.Close(bg)
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
		cg := gstore.Wrap(g)
		pool := kernel.NewPool(g.N())
		pool.Put(pool.Get())
		b.ReportAllocs()
		// The pool warmup above allocates a full n-sized workspace; at 1x
		// benchtime b.N is tiny, so without a timer reset that one-time
		// setup dominates allocs/op and records a ~kB/op artifact.
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ws := pool.Get()
			if _, err := (kernel.NibbleWalk{Eps: eps, Steps: steps}).Diffuse(cg, ws, seeds); err != nil {
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
		cg := gstore.Wrap(g)
		pool := kernel.NewPool(g.N())
		pool.Put(pool.Get())
		b.ReportAllocs()
		// Same timer reset as BenchmarkNibble/indexed: keep the pool
		// warmup out of the measured window.
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ws := pool.Get()
			if _, err := (kernel.HeatKernel{T: tVal, Eps: eps}).DiffuseContext(context.Background(), cg, ws, seeds); err != nil {
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
	hg, err := gen.Kronecker(gen.KroneckerConfig{Levels: 16}, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	g, err := gstore.NewCompact(hg)
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
