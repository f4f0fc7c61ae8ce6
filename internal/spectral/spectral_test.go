package spectral

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mat"
	"repro/internal/vec"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNormalizedLaplacianTrivialKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g, err := gen.ErdosRenyi(40, 0.2, rng)
	if err != nil {
		t.Fatal(err)
	}
	lap := NormalizedLaplacian(g)
	v1 := TrivialEigvec(g)
	y := lap.MulVec(v1, nil)
	if vec.Norm2(y) > 1e-10 {
		t.Fatalf("𝓛·D^{1/2}1 has norm %v, want ~0", vec.Norm2(y))
	}
}

func TestNormalizedLaplacianPSD(t *testing.T) {
	// All eigenvalues of 𝓛 lie in [0, 2].
	g := gen.Dumbbell(5, 2)
	e, err := mat.SymEigen(NormalizedLaplacian(g).Dense())
	if err != nil {
		t.Fatal(err)
	}
	for _, lam := range e.Values {
		if lam < -1e-10 || lam > 2+1e-10 {
			t.Fatalf("eigenvalue %v outside [0,2]", lam)
		}
	}
	if math.Abs(e.Values[0]) > 1e-10 {
		t.Fatalf("smallest eigenvalue %v, want 0", e.Values[0])
	}
}

func TestPowerMethodDominant(t *testing.T) {
	// diag(1, 2, 5): dominant eigenpair (5, e3).
	m, err := mat.NewCSR(3, 3, []mat.Triplet{{Row: 0, Col: 0, Val: 1}, {Row: 1, Col: 1, Val: 2}, {Row: 2, Col: 2, Val: 5}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := PowerMethod(m, PowerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(res.Value, 5, 1e-8) {
		t.Fatalf("dominant value = %v, want 5", res.Value)
	}
	if math.Abs(res.Vector[2]) < 0.999 {
		t.Fatalf("dominant vector = %v", res.Vector)
	}
}

func TestPowerMethodDeflation(t *testing.T) {
	m, err := mat.NewCSR(3, 3, []mat.Triplet{{Row: 0, Col: 0, Val: 1}, {Row: 1, Col: 1, Val: 2}, {Row: 2, Col: 2, Val: 5}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := PowerMethod(m, PowerOptions{Deflate: [][]float64{{0, 0, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(res.Value, 2, 1e-8) {
		t.Fatalf("deflated dominant = %v, want 2", res.Value)
	}
}

func TestPowerMethodStepsInterpolates(t *testing.T) {
	g := gen.Dumbbell(6, 0)
	lap := NormalizedLaplacian(g)
	n := g.N()
	var trips []mat.Triplet
	for i := 0; i < n; i++ {
		trips = append(trips, mat.Triplet{Row: i, Col: i, Val: 2})
	}
	for i := 0; i < n; i++ {
		cols, vals := lap.RowNNZ(i)
		for k, j := range cols {
			trips = append(trips, mat.Triplet{Row: i, Col: j, Val: -vals[k]})
		}
	}
	shifted, err := mat.NewCSR(n, n, trips)
	if err != nil {
		t.Fatal(err)
	}
	trivial := TrivialEigvec(g)
	rng := rand.New(rand.NewSource(3))
	start := make([]float64, n)
	for i := range start {
		start[i] = rng.NormFloat64()
	}
	// Rayleigh quotient of 𝓛 should decrease toward λ₂ as k grows.
	prevRQ := math.Inf(1)
	for _, k := range []int{0, 5, 50, 500} {
		x, err := PowerMethodSteps(shifted, start, k, [][]float64{trivial})
		if err != nil {
			t.Fatal(err)
		}
		rq := RayleighQuotient(lap, x)
		if rq > prevRQ+1e-9 {
			t.Fatalf("Rayleigh quotient increased from %v to %v at k=%d", prevRQ, rq, k)
		}
		prevRQ = rq
	}
}

func TestFiedlerPathGraph(t *testing.T) {
	// For P_n the normalized Laplacian spectrum is known qualitatively:
	// λ₂ small and positive; check against dense eigensolver.
	g := gen.Path(12)
	res, err := Fiedler(g, FiedlerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := mat.SymEigen(NormalizedLaplacian(g).Dense())
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(res.Lambda2, e.Values[1], 1e-6) {
		t.Fatalf("λ₂ = %v, dense says %v", res.Lambda2, e.Values[1])
	}
	// Fiedler vector of a path is monotone in the embedding coordinates.
	emb := res.Embedding
	inc, dec := true, true
	for i := 1; i < len(emb); i++ {
		if emb[i] < emb[i-1] {
			inc = false
		}
		if emb[i] > emb[i-1] {
			dec = false
		}
	}
	if !inc && !dec {
		t.Errorf("path Fiedler embedding not monotone: %v", emb)
	}
}

func TestFiedlerCompleteGraph(t *testing.T) {
	// For K_n, 𝓛 = n/(n-1)·(I − J/n); λ₂ = n/(n-1).
	g := gen.Complete(8)
	res, err := Fiedler(g, FiedlerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(res.Lambda2, 8.0/7, 1e-6) {
		t.Fatalf("K8 λ₂ = %v, want 8/7", res.Lambda2)
	}
}

func TestFiedlerDumbbellSeparates(t *testing.T) {
	g := gen.Dumbbell(8, 0)
	res, err := Fiedler(g, FiedlerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The embedding should separate the two cliques by sign.
	s1, s2 := res.Embedding[0], res.Embedding[8]
	if s1*s2 >= 0 {
		t.Fatalf("dumbbell Fiedler does not separate cliques: %v vs %v", s1, s2)
	}
}

func TestFiedlerErrors(t *testing.T) {
	g := gen.Path(1)
	if _, err := Fiedler(g, FiedlerOptions{}); err == nil {
		t.Fatal("Fiedler on single node accepted")
	}
}

func TestCheegerBounds(t *testing.T) {
	if !almostEq(Lambda2UpperBoundCheeger(0.5), 1, 1e-12) {
		t.Error("upper bound wrong")
	}
	if Lambda2UpperBoundCheeger(-1) != 0 {
		t.Error("negative λ₂ not clamped")
	}
}

// Property: Rayleigh quotients of 𝓛 lie in [0, 2] for any vector.
func TestPropRayleighRange(t *testing.T) {
	g := gen.RingOfCliques(3, 4)
	lap := NormalizedLaplacian(g)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, g.N())
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		rq := RayleighQuotient(lap, x)
		return rq >= -1e-9 && rq <= 2+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: the Cheeger inequality λ₂/2 ≤ φ(G) ≤ √(2λ₂) holds on random
// connected graphs, using brute-force φ(G) at small n.
func TestPropCheegerInequality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(6)
		g, err := gen.ErdosRenyi(n, 0.6, rng)
		if err != nil || !g.IsConnected() {
			return true
		}
		res, err := Fiedler(g, FiedlerOptions{})
		if err != nil && !errors.Is(err, ErrNoConvergence) {
			return true
		}
		phi := bruteForceConductance(g)
		return res.Lambda2/2 <= phi+1e-7 &&
			phi <= Lambda2UpperBoundCheeger(res.Lambda2)+1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func bruteForceConductance(g *graph.Graph) float64 {
	n := g.N()
	best := math.Inf(1)
	for mask := 1; mask < (1<<n)-1; mask++ {
		inS := make([]bool, n)
		for i := 0; i < n; i++ {
			inS[i] = mask&(1<<i) != 0
		}
		if phi := g.Conductance(inS); phi < best {
			best = phi
		}
	}
	return best
}
