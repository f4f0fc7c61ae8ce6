package diffusion

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/gstore"
	"repro/internal/mat"
	"repro/internal/spectral"
	"repro/internal/vec"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func sum(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}

// StationaryDistribution returns the random-walk stationary distribution
// π with π(u) = deg(u)/vol(V).
func StationaryDistribution(g gstore.Graph) []float64 {
	n := g.N()
	pi := make([]float64, n)
	volume := g.Volume()
	if volume == 0 {
		return pi
	}
	for u := 0; u < n; u++ {
		pi[u] = g.Degree(u) / volume
	}
	return pi
}

// Equilibrium measures how far a distribution x is from the stationary
// distribution π in total variation distance, ½||x − π||₁. A diffusion
// run "to the limiting value of the aggressiveness parameter" drives this
// to zero, independent of the seed — the un-regularized regime.
func Equilibrium(g gstore.Graph, x []float64) float64 {
	pi := StationaryDistribution(g)
	var s float64
	for i := range x {
		s += math.Abs(x[i] - pi[i])
	}
	return s / 2
}

func connectedER(t *testing.T, seed int64, n int, p float64) gstore.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for tries := 0; tries < 50; tries++ {
		g, err := gen.ErdosRenyi(n, p, rng)
		if err != nil {
			t.Fatal(err)
		}
		if g.IsConnected() {
			return g
		}
	}
	t.Fatal("could not sample a connected ER graph")
	return nil
}

func TestSeedVector(t *testing.T) {
	s, err := SeedVector(5, []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if s[1] != 0.5 || s[3] != 0.5 || sum(s) != 1 {
		t.Fatalf("SeedVector = %v", s)
	}
	if _, err := SeedVector(5, nil); err == nil {
		t.Fatal("empty seed accepted")
	}
	if _, err := SeedVector(5, []int{9}); err == nil {
		t.Fatal("out-of-range seed accepted")
	}
}

func TestLazyWalkPreservesMass(t *testing.T) {
	g := gen.RingOfCliques(3, 4)
	seed, err := SeedVector(g.N(), []int{0})
	if err != nil {
		t.Fatal(err)
	}
	x, err := LazyWalk(g, seed, 0.5, 25)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(sum(x), 1, 1e-10) {
		t.Fatalf("mass after lazy walk = %v", sum(x))
	}
	for i, v := range x {
		if v < -1e-12 {
			t.Fatalf("negative probability x[%d] = %v", i, v)
		}
	}
}

func TestLazyWalkZeroStepsIsSeed(t *testing.T) {
	g := gen.Cycle(6)
	seed, _ := SeedVector(6, []int{2})
	x, err := LazyWalk(g, seed, 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if vec.MaxAbsDiff(x, seed) != 0 {
		t.Fatal("0-step walk changed the seed")
	}
}

func TestLazyWalkEquilibrates(t *testing.T) {
	g := connectedER(t, 1, 30, 0.2)
	seed, _ := SeedVector(g.N(), []int{0})
	far, err := LazyWalk(g, seed, 0.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	near, err := LazyWalk(g, seed, 0.5, 400)
	if err != nil {
		t.Fatal(err)
	}
	if Equilibrium(g, near) > 1e-6 {
		t.Errorf("long lazy walk TV distance = %v, want ~0", Equilibrium(g, near))
	}
	if Equilibrium(g, far) < Equilibrium(g, near) {
		t.Error("short walk closer to equilibrium than long walk")
	}
}

func TestPageRankIsLinearSystemSolution(t *testing.T) {
	// Verify pr satisfies pr = γ s + (1−γ) M pr.
	g := connectedER(t, 2, 25, 0.25)
	seed, _ := SeedVector(g.N(), []int{3})
	gamma := 0.15
	pr, err := PageRank(g, seed, gamma, PageRankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rhs := walkMatrix(g, 0).MulVec(pr, nil)
	for i := range rhs {
		rhs[i] = gamma*seed[i] + (1-gamma)*rhs[i]
	}
	if vec.MaxAbsDiff(pr, rhs) > 1e-9 {
		t.Fatalf("PageRank fixed-point residual = %v", vec.MaxAbsDiff(pr, rhs))
	}
	if !almostEq(sum(pr), 1, 1e-9) {
		t.Fatalf("PageRank mass = %v", sum(pr))
	}
}

func TestPageRankGammaOneIsSeed(t *testing.T) {
	g := gen.Cycle(5)
	seed, _ := SeedVector(5, []int{1})
	pr, err := PageRank(g, seed, 1, PageRankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if vec.MaxAbsDiff(pr, seed) != 0 {
		t.Fatal("gamma=1 should return the seed exactly")
	}
}

func TestPageRankSmallGammaNearStationary(t *testing.T) {
	g := connectedER(t, 3, 30, 0.3)
	seed, _ := SeedVector(g.N(), []int{0})
	pr, err := PageRank(g, seed, 0.001, PageRankOptions{MaxIter: 200000})
	if err != nil {
		t.Fatal(err)
	}
	if Equilibrium(g, pr) > 0.02 {
		t.Errorf("gamma→0 PageRank TV distance from π = %v", Equilibrium(g, pr))
	}
}

func TestPageRankErrors(t *testing.T) {
	g := gen.Cycle(4)
	seed, _ := SeedVector(4, []int{0})
	if _, err := PageRank(g, seed, 0, PageRankOptions{}); err == nil {
		t.Fatal("gamma=0 accepted")
	}
	if _, err := PageRank(g, seed[:2], 0.2, PageRankOptions{}); err == nil {
		t.Fatal("bad seed length accepted")
	}
}

// HeatKernelDense computes exp(−tL)·s for an arbitrary symmetric CSR
// operator L via dense eigendecomposition. It is the reference
// implementation used to validate HeatKernel and to evaluate the heat
// dynamics on the normalized Laplacian (the operator of the §3.1 SDP),
// at small n.
func HeatKernelDense(l *mat.CSR, seed []float64, t float64) ([]float64, error) {
	if l.Rows != l.ColsN {
		return nil, fmt.Errorf("diffusion: HeatKernelDense requires square operator, got %dx%d", l.Rows, l.ColsN)
	}
	if len(seed) != l.Rows {
		return nil, fmt.Errorf("diffusion: seed length %d != %d", len(seed), l.Rows)
	}
	e, err := mat.SymEigen(l.Dense())
	if err != nil {
		return nil, fmt.Errorf("diffusion: HeatKernelDense: %w", err)
	}
	h := reconstruct(e, func(lam float64) float64 { return math.Exp(-t * lam) })
	return h.MulVec(seed), nil
}

// reconstruct returns V diag(f(λ)) Vᵀ for the eigendecomposition e.
func reconstruct(e *mat.Eigen, f func(float64) float64) *mat.Dense {
	n := len(e.Values)
	out := mat.NewDense(n, n)
	for k, lam := range e.Values {
		w := f(lam)
		if w == 0 {
			continue
		}
		for i := 0; i < n; i++ {
			vik := e.Vectors.At(i, k)
			if vik == 0 {
				continue
			}
			row := out.Data[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				row[j] += w * vik * e.Vectors.At(j, k)
			}
		}
	}
	return out
}

func TestHeatKernelMatchesDense(t *testing.T) {
	g := connectedER(t, 5, 20, 0.3)
	seed, _ := SeedVector(g.N(), []int{2})
	for _, tm := range []float64{0.1, 1, 5} {
		fast, err := HeatKernel(g, seed, tm, HeatKernelOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// Dense reference on the same operator 𝓛_rw = I − M: build
		// I − M in symmetric coordinates. M = A D^{-1} is similar to the
		// symmetric 𝓝 = D^{-1/2} A D^{-1/2}: M = D^{1/2} 𝓝 D^{-1/2}.
		// So exp(−t(I−M)) s = D^{1/2} exp(−t𝓛) D^{-1/2} s.
		lap := spectral.NormalizedLaplacian(g)
		deg := g.Degrees()
		sTilde := vec.ScaleByDegree(seed, deg, -0.5)
		hTilde, err := HeatKernelDense(lap, sTilde, tm)
		if err != nil {
			t.Fatal(err)
		}
		want := vec.ScaleByDegree(hTilde, deg, 0.5)
		if d := vec.MaxAbsDiff(fast, want); d > 1e-8 {
			t.Fatalf("t=%v: heat kernel mismatch %v", tm, d)
		}
	}
}

func TestHeatKernelZeroTimeIsSeed(t *testing.T) {
	g := gen.Cycle(7)
	seed, _ := SeedVector(7, []int{0})
	x, err := HeatKernel(g, seed, 0, HeatKernelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if vec.MaxAbsDiff(x, seed) > 1e-12 {
		t.Fatal("t=0 heat kernel changed the seed")
	}
}

func TestHeatKernelEquilibrates(t *testing.T) {
	g := connectedER(t, 6, 25, 0.3)
	seed, _ := SeedVector(g.N(), []int{0})
	x, err := HeatKernel(g, seed, 200, HeatKernelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if Equilibrium(g, x) > 1e-6 {
		t.Errorf("t=200 heat kernel TV distance = %v", Equilibrium(g, x))
	}
}

func TestHeatKernelErrors(t *testing.T) {
	g := gen.Cycle(4)
	seed, _ := SeedVector(4, []int{0})
	if _, err := HeatKernel(g, seed, -1, HeatKernelOptions{}); err == nil {
		t.Fatal("negative t accepted")
	}
	if _, err := HeatKernel(g, seed, math.NaN(), HeatKernelOptions{}); err == nil {
		t.Fatal("NaN t accepted")
	}
}

// TestHeatKernelTimeBound: at maxHeatT the series is still exact, and
// past it, where e^t overflows float64 and the sum drifts off 1,
// HeatKernel refuses t instead of answering.
func TestHeatKernelTimeBound(t *testing.T) {
	g := gen.RingOfCliques(8, 8)
	seed, _ := SeedVector(g.N(), []int{0})
	x, err := HeatKernel(g, seed, maxHeatT, HeatKernelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s := sum(x); !almostEq(s, 1, 1e-9) {
		t.Fatalf("t=%d: mass %v, want 1", maxHeatT, s)
	}
	if _, err := HeatKernel(g, seed, 710, HeatKernelOptions{}); err == nil {
		t.Fatal("t=710 accepted")
	}
}

func TestStationaryDistribution(t *testing.T) {
	g := gen.Star(4)
	pi := StationaryDistribution(g)
	// vol = 6; π(center) = 3/6.
	if !almostEq(pi[0], 0.5, 1e-12) || !almostEq(pi[1], 1.0/6, 1e-12) {
		t.Fatalf("π = %v", pi)
	}
	if !almostEq(sum(pi), 1, 1e-12) {
		t.Fatal("π does not sum to 1")
	}
}

// Property: all three dynamics preserve probability mass and
// nonnegativity for any connected graph, seed node and parameter within
// range.
func TestPropDynamicsPreserveDistribution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		hg, err := gen.ErdosRenyi(5+rng.Intn(20), 0.4, rng)
		if err != nil || !hg.IsConnected() || hg.N() < 2 {
			return true
		}
		g := hg
		s, err := SeedVector(g.N(), []int{rng.Intn(g.N())})
		if err != nil {
			return false
		}
		lw, err := LazyWalk(g, s, 0.5+rng.Float64()*0.45, rng.Intn(20))
		if err != nil {
			return false
		}
		pr, err := PageRank(g, s, 0.05+rng.Float64()*0.9, PageRankOptions{})
		if err != nil {
			return false
		}
		hk, err := HeatKernel(g, s, rng.Float64()*5, HeatKernelOptions{})
		if err != nil {
			return false
		}
		for _, x := range [][]float64{lw, pr, hk} {
			if !almostEq(sum(x), 1, 1e-8) {
				return false
			}
			for _, v := range x {
				if v < -1e-10 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: the aggressiveness parameter interpolates monotonically
// between seed and equilibrium for the heat kernel.
func TestPropHeatKernelMonotoneEquilibration(t *testing.T) {
	g := connectedER(t, 7, 20, 0.3)
	seed, _ := SeedVector(g.N(), []int{0})
	prev := math.Inf(1)
	for _, tm := range []float64{0.1, 0.5, 1, 2, 4, 8, 16, 32} {
		x, err := HeatKernel(g, seed, tm, HeatKernelOptions{})
		if err != nil {
			t.Fatal(err)
		}
		eq := Equilibrium(g, x)
		if eq > prev+1e-9 {
			t.Fatalf("equilibration not monotone at t=%v: %v > %v", tm, eq, prev)
		}
		prev = eq
	}
}
