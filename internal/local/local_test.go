package local

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/gstore"
	"repro/internal/kernel"
	"repro/internal/spectral"
	"repro/internal/vec"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// Sum returns the total mass of the vector, accumulated in ascending
// node order so the result is bit-identical run to run.
func (v SparseVec) Sum() float64 {
	var s float64
	for _, u := range v.Support() {
		s += v[u]
	}
	return s
}

// ExactPageRankDense computes the exact PPR vector with the same lazy
// convention as ApproxPageRank by dense iteration, used to validate the
// push invariant. O(m·iterations); for tests and small graphs.
func ExactPageRankDense(g *graph.Graph, seed []float64, alpha float64, tol float64, maxIter int) ([]float64, error) {
	if alpha <= 0 || alpha >= 1 {
		return nil, fmt.Errorf("local: alpha=%v outside (0,1)", alpha)
	}
	if len(seed) != g.N() {
		return nil, fmt.Errorf("local: seed length %d != %d nodes", len(seed), g.N())
	}
	if tol <= 0 {
		tol = 1e-12
	}
	if maxIter <= 0 {
		maxIter = 100000
	}
	n := g.N()
	x := make([]float64, n)
	copy(x, seed)
	y := make([]float64, n)
	for it := 0; it < maxIter; it++ {
		// y = α s + (1−α) W x, W = (I + A D^{-1})/2.
		for i := range y {
			y[i] = 0
		}
		for u := 0; u < n; u++ {
			if x[u] == 0 {
				continue
			}
			du := g.Degree(u)
			if du == 0 {
				y[u] += x[u]
				continue
			}
			y[u] += x[u] / 2
			nbrs, ws := g.Neighbors(u)
			for i, v := range nbrs {
				y[v] += x[u] / 2 * ws[i] / du
			}
		}
		var diff float64
		for i := range y {
			y[i] = alpha*seed[i] + (1-alpha)*y[i]
			if d := math.Abs(y[i] - x[i]); d > diff {
				diff = d
			}
		}
		x, y = y, x
		if diff < tol {
			return x, nil
		}
	}
	return x, fmt.Errorf("local: exact PPR did not converge in %d iterations", maxIter)
}

func TestApproxPageRankInvariant(t *testing.T) {
	// The ACL invariant: p + pr_α(r) = pr_α(s). Check via the dense exact
	// solver: pr(s) − p must equal pr(r).
	g := gen.RingOfCliques(3, 5)
	alpha, eps := 0.2, 1e-4
	res, err := ApproxPageRank(gstore.Wrap(g), []int{0}, alpha, eps)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	seed := make([]float64, n)
	seed[0] = 1
	exact, err := ExactPageRankDense(g, seed, alpha, 1e-14, 0)
	if err != nil {
		t.Fatal(err)
	}
	rDense := make([]float64, n)
	for u, m := range res.R {
		rDense[u] = m
	}
	prR, err := ExactPageRankDense(g, rDense, alpha, 1e-14, 0)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < n; u++ {
		lhs := res.P[u] + prR[u]
		if !almostEq(lhs, exact[u], 1e-9) {
			t.Fatalf("invariant violated at node %d: p+pr(r)=%v, pr(s)=%v", u, lhs, exact[u])
		}
	}
}

func TestApproxPageRankResidualBound(t *testing.T) {
	g := gen.Dumbbell(10, 2)
	eps := 1e-3
	res, err := ApproxPageRank(gstore.Wrap(g), []int{0}, 0.1, eps)
	if err != nil {
		t.Fatal(err)
	}
	for u, r := range res.R {
		if r >= eps*g.Degree(u)+1e-15 {
			t.Fatalf("residual at %d is %v ≥ ε·deg = %v", u, r, eps*g.Degree(u))
		}
	}
	// Mass conservation: Σp + Σr = 1.
	if !almostEq(res.P.Sum()+res.R.Sum(), 1, 1e-10) {
		t.Fatalf("mass = %v, want 1", res.P.Sum()+res.R.Sum())
	}
}

func TestApproxPageRankWorkBound(t *testing.T) {
	// ACL: total work volume ≤ 1/(ε·α) (for unit weights; weighted graphs
	// scale the same way). Check with slack 2×.
	rng := rand.New(rand.NewSource(1))
	g, err := gen.ForestFire(gen.ForestFireConfig{N: 3000, FwdProb: 0.35, Ambs: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	alpha, eps := 0.1, 1e-4
	res, err := ApproxPageRank(gstore.Wrap(g), []int{42}, alpha, eps)
	if err != nil {
		t.Fatal(err)
	}
	bound := 2 / (eps * alpha)
	if res.WorkVolume > bound {
		t.Fatalf("work volume %v exceeds 2/(εα) = %v", res.WorkVolume, bound)
	}
}

func TestApproxPageRankLocality(t *testing.T) {
	// The support must not grow with n: same seed/params on graphs of
	// very different sizes.
	rng := rand.New(rand.NewSource(2))
	var supports []int
	for _, n := range []int{2000, 20000} {
		g, err := gen.ForestFire(gen.ForestFireConfig{N: n, FwdProb: 0.33, Ambs: 1}, rng)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ApproxPageRank(gstore.Wrap(g), []int{7}, 0.15, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		supports = append(supports, len(res.P))
	}
	if supports[1] > 10*supports[0]+100 {
		t.Errorf("support grew with n: %v", supports)
	}
}

func TestApproxPageRankErrors(t *testing.T) {
	g := gen.Path(5)
	if _, err := ApproxPageRank(gstore.Wrap(g), nil, 0.1, 1e-3); err == nil {
		t.Fatal("empty seeds accepted")
	}
	if _, err := ApproxPageRank(gstore.Wrap(g), []int{0}, 0, 1e-3); err == nil {
		t.Fatal("alpha=0 accepted")
	}
	if _, err := ApproxPageRank(gstore.Wrap(g), []int{0}, 0.5, 0); err == nil {
		t.Fatal("eps=0 accepted")
	}
	if _, err := ApproxPageRank(gstore.Wrap(g), []int{9}, 0.5, 1e-3); err == nil {
		t.Fatal("out-of-range seed accepted")
	}
}

func TestSweepCutFindsPlantedCluster(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, err := gen.PlantedPartition(5, 30, 0.4, 0.005, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ApproxPageRank(gstore.Wrap(g), []int{3}, 0.05, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := SweepCut(gstore.Wrap(g), res.P)
	if err != nil {
		t.Fatal(err)
	}
	// The sweep should recover (most of) block 0 = nodes 0..29.
	inBlock := 0
	for _, u := range sw.Set {
		if u < 30 {
			inBlock++
		}
	}
	if inBlock < len(sw.Set)*3/4 {
		t.Errorf("local cluster has %d/%d nodes from the planted block", inBlock, len(sw.Set))
	}
	if sw.Conductance > 0.15 {
		t.Errorf("local sweep φ = %v, expected well below 0.15", sw.Conductance)
	}
}

func TestNibbleStaysLocal(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g, err := gen.ForestFire(gen.ForestFireConfig{N: 5000, FwdProb: 0.33, Ambs: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Nibble(gstore.Wrap(g), []int{11}, 1e-4, 30)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxSupport > g.N()/4 {
		t.Errorf("Nibble support %d too large for truncated walk", res.MaxSupport)
	}
	if res.Steps == 0 {
		t.Error("Nibble made no steps")
	}
}

func TestNibbleFindsCliqueCluster(t *testing.T) {
	g := gen.RingOfCliques(6, 8)
	res, err := Nibble(gstore.Wrap(g), []int{0}, 1e-5, 40)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("Nibble found no cut")
	}
	if res.Best.Conductance > 0.1 {
		t.Errorf("Nibble best φ = %v, expected to find a clique cut", res.Best.Conductance)
	}
}

func TestNibbleTruncationIsRealized(t *testing.T) {
	g := gen.Path(200)
	res, err := Nibble(gstore.Wrap(g), []int{100}, 1e-3, 10)
	if err != nil {
		t.Fatal(err)
	}
	for u, m := range res.Dist {
		if m < 1e-3*g.Degree(u) {
			t.Fatalf("untruncated small entry at %d: %v", u, m)
		}
	}
}

func TestNibbleErrors(t *testing.T) {
	g := gen.Path(5)
	if _, err := Nibble(gstore.Wrap(g), []int{0}, 0, 5); err == nil {
		t.Fatal("eps=0 accepted")
	}
	if _, err := Nibble(gstore.Wrap(g), []int{0}, 1e-3, 0); err == nil {
		t.Fatal("steps=0 accepted")
	}
	if _, err := Nibble(gstore.Wrap(g), nil, 1e-3, 5); err == nil {
		t.Fatal("empty seeds accepted")
	}
}

func TestHeatKernelLocalApproximatesDense(t *testing.T) {
	g := gen.RingOfCliques(3, 5)
	tVal := 3.0
	ws := kernel.NewWorkspace(g.N())
	if _, err := (kernel.HeatKernel{T: tVal, Eps: 1e-9}).DiffuseContext(context.Background(), gstore.Wrap(g), ws, []int{0}); err != nil {
		t.Fatal(err)
	}
	dist := FromWorkspaceP(ws)
	// Dense reference: exp(−t(I−W))·s over the lazy walk W.
	n := g.N()
	seed := make([]float64, n)
	seed[0] = 1
	dense := denseLazyHeatKernel(g, seed, tVal)
	for u := 0; u < n; u++ {
		if !almostEq(dist[u], dense[u], 1e-5) {
			t.Fatalf("node %d: local %v vs dense %v", u, dist[u], dense[u])
		}
	}
}

// denseLazyHeatKernel computes exp(−t(I−W))·s by an un-truncated Taylor
// sum with the same lazy walk.
func denseLazyHeatKernel(g *graph.Graph, seed []float64, t float64) []float64 {
	n := g.N()
	out := make([]float64, n)
	cur := append([]float64(nil), seed...)
	w := math.Exp(-t)
	for i := range out {
		out[i] = w * cur[i]
	}
	for k := 1; k < 300; k++ {
		next := make([]float64, n)
		for u := 0; u < n; u++ {
			if cur[u] == 0 {
				continue
			}
			du := g.Degree(u)
			if du == 0 {
				next[u] += cur[u]
				continue
			}
			next[u] += cur[u] / 2
			nbrs, ws := g.Neighbors(u)
			for i, v := range nbrs {
				next[v] += cur[u] / 2 * ws[i] / du
			}
		}
		cur = next
		w *= t / float64(k)
		for i := range out {
			out[i] += w * cur[i]
		}
	}
	return out
}

func TestMOVInterpolatesSeedToFiedler(t *testing.T) {
	g := gen.Dumbbell(6, 2)
	fied, err := spectral.Fiedler(g, spectral.FiedlerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	seeds := []int{0}
	// γ far below 0: solution close to the (projected) seed direction.
	resLow, err := MOV(g, seeds, -100, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// γ close to λ₂: solution close to the Fiedler vector.
	resHigh, err := MOV(g, seeds, fied.Lambda2*0.995, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	align := math.Abs(vec.Dot(resHigh.Vector, fied.Vector))
	if align < 0.99 {
		t.Errorf("γ→λ₂ MOV alignment with Fiedler = %v, want ≈1", align)
	}
	if resLow.SeedCorrelation < resHigh.SeedCorrelation {
		t.Errorf("seed correlation should decrease with γ: low=%v high=%v",
			resLow.SeedCorrelation, resHigh.SeedCorrelation)
	}
	// Objective must increase as the locality constraint tightens.
	if resLow.Rayleigh < resHigh.Rayleigh-1e-9 {
		t.Errorf("Rayleigh should grow with locality: low-γ %v < high-γ %v",
			resLow.Rayleigh, resHigh.Rayleigh)
	}
}

func TestMOVSatisfiesStationarity(t *testing.T) {
	// (𝓛 − γI)x must be parallel to P D^{1/2}s.
	g := gen.RingOfCliques(3, 4)
	gamma := -0.5
	res, err := MOV(g, []int{2}, gamma, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	lap := spectral.NormalizedLaplacian(g)
	y := lap.MulVec(res.Vector, nil)
	vec.Axpy(-gamma, res.Vector, y)
	s := make([]float64, g.N())
	s[2] = 1
	rhs := vec.ScaleByDegree(s, g.Degrees(), 0.5)
	vec.ProjectOut(rhs, spectral.TrivialEigvec(g))
	// Cosine similarity between y and rhs should be ±1.
	cos := vec.Dot(y, rhs) / (vec.Norm2(y) * vec.Norm2(rhs))
	if math.Abs(math.Abs(cos)-1) > 1e-6 {
		t.Fatalf("stationarity violated: cos = %v", cos)
	}
}

func TestMOVErrors(t *testing.T) {
	g := gen.Dumbbell(4, 0)
	if _, err := MOV(g, nil, -1, 0, 0); err == nil {
		t.Fatal("empty seeds accepted")
	}
	if _, err := MOV(g, []int{99}, -1, 0, 0); err == nil {
		t.Fatal("out-of-range seed accepted")
	}
	// γ ≥ λ₂ makes the operator indefinite; must error, not hang.
	if _, err := MOV(g, []int{0}, 10, 0, 0); err == nil {
		t.Fatal("γ > λ₂ accepted")
	}
}

func TestSparseVecHelpers(t *testing.T) {
	v := SparseVec{3: 0.5, 1: 0.25}
	if !almostEq(v.Sum(), 0.75, 1e-12) {
		t.Fatal("Sum wrong")
	}
	sup := v.Support()
	if len(sup) != 2 || sup[0] != 1 || sup[1] != 3 {
		t.Fatalf("Support = %v", sup)
	}
	order := SweepOrder(v)
	if order[0] != 3 || order[1] != 1 {
		t.Fatalf("SweepOrder = %v", order)
	}
}

// Property: push mass conservation and residual bound hold for random
// graphs and parameters.
func TestPropPushInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := gen.ErdosRenyi(10+rng.Intn(40), 0.15, rng)
		if err != nil {
			return false
		}
		alpha := 0.05 + rng.Float64()*0.9
		eps := math.Pow(10, -1-3*rng.Float64())
		node := rng.Intn(g.N())
		res, err := ApproxPageRank(gstore.Wrap(g), []int{node}, alpha, eps)
		if err != nil {
			return false
		}
		if !almostEq(res.P.Sum()+res.R.Sum(), 1, 1e-9) {
			return false
		}
		for u, r := range res.R {
			if g.Degree(u) > 0 && r >= eps*g.Degree(u)+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: Nibble distributions stay sub-stochastic (truncation only
// removes mass).
func TestPropNibbleSubStochastic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := gen.ErdosRenyi(10+rng.Intn(30), 0.2, rng)
		if err != nil {
			return false
		}
		res, err := Nibble(gstore.Wrap(g), []int{rng.Intn(g.N())}, 1e-3, 1+rng.Intn(15))
		if err != nil {
			return false
		}
		return res.Dist.Sum() <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
