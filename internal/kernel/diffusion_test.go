package kernel_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kernel"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// exactPageRankDense computes the exact PPR vector with the same lazy
// convention as kernel.PushACL by dense iteration, used to validate the
// push invariant. O(m·iterations); for tests and small graphs.
func exactPageRankDense(g *graph.Graph, seed []float64, alpha float64, tol float64, maxIter int) ([]float64, error) {
	if alpha <= 0 || alpha >= 1 {
		return nil, fmt.Errorf("exact PPR: alpha=%v outside (0,1)", alpha)
	}
	if len(seed) != g.N() {
		return nil, fmt.Errorf("exact PPR: seed length %d != %d nodes", len(seed), g.N())
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
			it := g.Neighbors(u)
			for v, w, ok := it.Next(); ok; v, w, ok = it.Next() {
				y[v] += x[u] / 2 * w / du
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
	return x, fmt.Errorf("exact PPR did not converge in %d iterations", maxIter)
}

func TestApproxPageRankInvariant(t *testing.T) {
	// The ACL invariant: p + pr_α(r) = pr_α(s). Check via the dense exact
	// solver: pr(s) − p must equal pr(r).
	g := gen.RingOfCliques(3, 5)
	alpha, eps := 0.2, 1e-4
	res, err := approxPageRank(g, []int{0}, alpha, eps)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	seed := make([]float64, n)
	seed[0] = 1
	exact, err := exactPageRankDense(g, seed, alpha, 1e-14, 0)
	if err != nil {
		t.Fatal(err)
	}
	rDense := make([]float64, n)
	for u, m := range res.R {
		rDense[u] = m
	}
	prR, err := exactPageRankDense(g, rDense, alpha, 1e-14, 0)
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
	res, err := approxPageRank(g, []int{0}, 0.1, eps)
	if err != nil {
		t.Fatal(err)
	}
	for u, r := range res.R {
		if r >= eps*g.Degree(u)+1e-15 {
			t.Fatalf("residual at %d is %v ≥ ε·deg = %v", u, r, eps*g.Degree(u))
		}
	}
	// Mass conservation: Σp + Σr = 1.
	if !almostEq(res.P.sum()+res.R.sum(), 1, 1e-10) {
		t.Fatalf("mass = %v, want 1", res.P.sum()+res.R.sum())
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
	res, err := approxPageRank(g, []int{42}, alpha, eps)
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
		res, err := approxPageRank(g, []int{7}, 0.15, 1e-3)
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
	if _, err := approxPageRank(g, nil, 0.1, 1e-3); err == nil {
		t.Fatal("empty seeds accepted")
	}
	if _, err := approxPageRank(g, []int{0}, 0, 1e-3); err == nil {
		t.Fatal("alpha=0 accepted")
	}
	if _, err := approxPageRank(g, []int{0}, 0.5, 0); err == nil {
		t.Fatal("eps=0 accepted")
	}
	if _, err := approxPageRank(g, []int{9}, 0.5, 1e-3); err == nil {
		t.Fatal("out-of-range seed accepted")
	}
}

func TestSweepCutFindsPlantedCluster(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, err := gen.PlantedPartition(5, 30, 0.4, 0.005, rng)
	if err != nil {
		t.Fatal(err)
	}
	ws := kernel.NewWorkspace(g.N())
	if _, err := (kernel.PushACL{Alpha: 0.05, Eps: 1e-5}).Diffuse(g, ws, []int{3}); err != nil {
		t.Fatal(err)
	}
	sw, err := workspaceSweepCut(g, ws)
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
	res, err := nibble(g, []int{11}, 1e-4, 30)
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
	res, err := nibble(g, []int{0}, 1e-5, 40)
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
	res, err := nibble(g, []int{100}, 1e-3, 10)
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
	if _, err := nibble(g, []int{0}, 0, 5); err == nil {
		t.Fatal("eps=0 accepted")
	}
	if _, err := nibble(g, []int{0}, 1e-3, 0); err == nil {
		t.Fatal("steps=0 accepted")
	}
	if _, err := nibble(g, nil, 1e-3, 5); err == nil {
		t.Fatal("empty seeds accepted")
	}
}

func TestHeatKernelLocalApproximatesDense(t *testing.T) {
	g := gen.RingOfCliques(3, 5)
	tVal := 3.0
	ws := kernel.NewWorkspace(g.N())
	if _, err := (kernel.HeatKernel{T: tVal, Eps: 1e-9}).DiffuseContext(context.Background(), g, ws, []int{0}); err != nil {
		t.Fatal(err)
	}
	dist := fromP(ws)
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
			it := g.Neighbors(u)
			for v, wt, ok := it.Next(); ok; v, wt, ok = it.Next() {
				next[v] += cur[u] / 2 * wt / du
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

// Property: push mass conservation and the residual bound hold for
// random graphs and parameters, in every weight form — unit weights,
// weights float32 holds exactly, weights only float64 holds — on every
// backend batchBackends serves, the mapped snapshot included. Masses
// are summed in ascending node order (sparseVec.sum), so a failing
// draw fails the same way every run.
func TestPropPushInvariants(t *testing.T) {
	for _, wf := range []struct {
		name    string
		form    graph.WeightForm
		weights []float64
	}{
		{"unit", graph.WeightsUnit, []float64{1}},
		{"f32", graph.WeightsF32, []float64{0.5, 2.25, 8}}, // dyadic
		{"f64", graph.WeightsF64, []float64{0.1, 0.3}},
	} {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			g, err := weightedER(10+rng.Intn(40), 0.15, wf.weights, rng)
			if err != nil {
				return false
			}
			if w := max(graph.DetectWeightForm(g.RawWeights32()), graph.DetectWeightForm(g.RawWeights64())); g.M() > 0 && w != wf.form {
				return false
			}
			alpha := 0.05 + rng.Float64()*0.9
			eps := math.Pow(10, -1-3*rng.Float64())
			node := rng.Intn(g.N())
			for _, bg := range batchBackends(t, g) {
				res, err := approxPageRank(bg, []int{node}, alpha, eps)
				if err != nil {
					return false
				}
				if !almostEq(res.P.sum()+res.R.sum(), 1, 1e-9) {
					return false
				}
				for u, r := range res.R {
					if g.Degree(u) > 0 && r >= eps*g.Degree(u)+1e-12 {
						return false
					}
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Errorf("%s weights: %v", wf.name, err)
		}
	}
}

// weightedER is an Erdős–Rényi graph on n nodes whose edges carry
// weights drawn from weights.
func weightedER(n int, p float64, weights []float64, rng *rand.Rand) (*graph.Graph, error) {
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				b.AddWeightedEdge(u, v, weights[rng.Intn(len(weights))])
			}
		}
	}
	return b.Build()
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
		res, err := nibble(g, []int{rng.Intn(g.N())}, 1e-3, 1+rng.Intn(15))
		if err != nil {
			return false
		}
		return res.Dist.sum() <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
