package regsdp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
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

// RegValue returns G(X) for the given regularizer evaluated spectrally.
// For PNorm, p must be the same parameter used to solve.
func (s *Solution) RegValue(reg Regularizer, p float64) float64 {
	var gv float64
	switch reg {
	case Entropy:
		for _, w := range s.Weights {
			if w > 0 {
				gv += w * math.Log(w)
			}
		}
	case LogDet:
		for _, w := range s.Weights {
			if w <= 0 {
				return math.Inf(1)
			}
			gv -= math.Log(w)
		}
	case PNorm:
		for _, w := range s.Weights {
			gv += math.Pow(w, p)
		}
		gv /= p
	}
	return gv
}

// Objective returns the full regularized objective
// Tr(𝓛X) + (1/η)·G(X).
func (s *Solution) Objective(reg Regularizer, eta, p float64) float64 {
	return s.TraceObjective() + s.RegValue(reg, p)/eta
}

func testSpectrum(t *testing.T, g *graph.Graph) *Spectrum {
	t.Helper()
	s, err := NewSpectrum(g)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func connectedER(t *testing.T, seed int64, n int, p float64) *graph.Graph {
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
	t.Fatal("no connected sample")
	return nil
}

func TestNewSpectrumRejectsDisconnected(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSpectrum(g); err == nil {
		t.Fatal("disconnected graph accepted")
	}
}

func TestSolveUnregularizedIsRankOne(t *testing.T) {
	g := gen.Dumbbell(5, 1)
	s := testSpectrum(t, g)
	sol := SolveUnregularized(s)
	if !almostEq(sum(sol.Weights), 1, 1e-12) {
		t.Fatal("weights do not sum to 1")
	}
	nonzero := 0
	for _, w := range sol.Weights {
		if w != 0 {
			nonzero++
		}
	}
	if nonzero != 1 {
		t.Fatalf("rank = %d, want 1", nonzero)
	}
	// Its trace objective is λ₂ (the Rayleigh optimum of Problem (3)).
	if !almostEq(sol.TraceObjective(), s.NontrivialValues()[0], 1e-12) {
		t.Fatalf("Tr(LX) = %v, want λ₂ = %v", sol.TraceObjective(), s.NontrivialValues()[0])
	}
}

func TestSolutionWeightsAreDistributions(t *testing.T) {
	g := gen.RingOfCliques(3, 5)
	s := testSpectrum(t, g)
	cases := []struct {
		reg Regularizer
		eta float64
		p   float64
	}{
		{Entropy, 0.5, 0}, {Entropy, 5, 0},
		{LogDet, 0.5, 0}, {LogDet, 5, 0},
		{PNorm, 0.5, 1.5}, {PNorm, 5, 3},
	}
	for _, c := range cases {
		sol, err := Solve(s, c.reg, c.eta, c.p)
		if err != nil {
			t.Fatalf("%v eta=%v: %v", c.reg, c.eta, err)
		}
		if !almostEq(sum(sol.Weights), 1, 1e-9) {
			t.Errorf("%v eta=%v: trace = %v", c.reg, c.eta, sum(sol.Weights))
		}
		for i, w := range sol.Weights {
			if w < -1e-12 {
				t.Errorf("%v eta=%v: negative weight[%d] = %v", c.reg, c.eta, i, w)
			}
		}
	}
}

// The central claim of §3.1, first dynamics: the Heat Kernel operator at
// time t is exactly the Entropy-SDP optimum at η = t.
func TestHeatKernelIsEntropySDPOptimum(t *testing.T) {
	for _, g := range []*graph.Graph{gen.Dumbbell(6, 2), gen.RingOfCliques(4, 4), connectedER(t, 1, 30, 0.2)} {
		s := testSpectrum(t, g)
		for _, tm := range []float64{0.1, 1, 3, 10} {
			hk, err := HeatKernelOperator(s, tm)
			if err != nil {
				t.Fatal(err)
			}
			sdp, err := Solve(s, Entropy, tm, 0)
			if err != nil {
				t.Fatal(err)
			}
			if d := MaxWeightDiff(hk, sdp); d > 1e-12 {
				t.Errorf("t=%v: heat kernel vs entropy SDP weight diff %v", tm, d)
			}
		}
	}
}

// Second dynamics: the PageRank resolvent at teleportation γ is the
// LogDet-SDP optimum at η = EtaForPageRank(γ), with dual ν = γ/(1−γ).
func TestPageRankIsLogDetSDPOptimum(t *testing.T) {
	for _, g := range []*graph.Graph{gen.Dumbbell(5, 1), connectedER(t, 2, 25, 0.25)} {
		s := testSpectrum(t, g)
		for _, gamma := range []float64{0.05, 0.15, 0.5, 0.9} {
			pr, err := PageRankOperator(s, gamma)
			if err != nil {
				t.Fatal(err)
			}
			eta, err := EtaForPageRank(s, gamma)
			if err != nil {
				t.Fatal(err)
			}
			sdp, err := Solve(s, LogDet, eta, 0)
			if err != nil {
				t.Fatal(err)
			}
			if d := MaxWeightDiff(pr, sdp); d > 1e-9 {
				t.Errorf("gamma=%v: PageRank vs log-det SDP weight diff %v", gamma, d)
			}
			if !almostEq(sdp.Dual, gamma/(1-gamma), 1e-6*(1+gamma/(1-gamma))) {
				t.Errorf("gamma=%v: dual = %v, want %v", gamma, sdp.Dual, gamma/(1-gamma))
			}
		}
	}
}

// Third dynamics: the k-step lazy walk operator is the PNorm-SDP optimum
// with p = 1 + 1/k and η from EtaForLazyWalk.
func TestLazyWalkIsPNormSDPOptimum(t *testing.T) {
	for _, g := range []*graph.Graph{gen.Dumbbell(5, 1), connectedER(t, 3, 20, 0.3)} {
		s := testSpectrum(t, g)
		for _, alpha := range []float64{0.5, 0.7, 0.9} {
			for _, k := range []int{1, 3, 10} {
				lw, err := LazyWalkOperator(s, alpha, k)
				if err != nil {
					t.Fatal(err)
				}
				eta, p, err := EtaForLazyWalk(s, alpha, k)
				if err != nil {
					t.Fatal(err)
				}
				sdp, err := Solve(s, PNorm, eta, p)
				if err != nil {
					t.Fatal(err)
				}
				if d := MaxWeightDiff(lw, sdp); d > 1e-8 {
					t.Errorf("alpha=%v k=%d: lazy walk vs p-norm SDP weight diff %v", alpha, k, d)
				}
			}
		}
	}
}

// The closed forms agree with an independent projected-gradient solve.
func TestClosedFormsMatchProjectedGradient(t *testing.T) {
	g := gen.RingOfCliques(3, 4)
	s := testSpectrum(t, g)
	cases := []struct {
		reg Regularizer
		eta float64
		p   float64
		tol float64
	}{
		{Entropy, 2, 0, 1e-6},
		{LogDet, 2, 0, 1e-5},
		{PNorm, 2, 2, 1e-6},
	}
	for _, c := range cases {
		closed, err := Solve(s, c.reg, c.eta, c.p)
		if err != nil {
			t.Fatal(err)
		}
		grad, err := SolveByProjectedGradient(s, c.reg, c.eta, c.p, 50000)
		if err != nil {
			t.Fatal(err)
		}
		if d := MaxWeightDiff(closed, grad); d > c.tol {
			t.Errorf("%v: closed form vs gradient diff %v (tol %v)", c.reg, d, c.tol)
		}
		// Objective of the closed form must not exceed the gradient
		// solution's (it is claimed optimal).
		if closed.Objective(c.reg, c.eta, c.p) > grad.Objective(c.reg, c.eta, c.p)+1e-9 {
			t.Errorf("%v: closed form objective worse than gradient's", c.reg)
		}
	}
}

// Regularization tradeoff: as η → ∞ the regularized optimum approaches
// the unregularized rank-one solution; as η → 0 it flattens (more
// "regular"). Tr(LX) must be monotone nonincreasing in η.
func TestEtaTradeoffMonotone(t *testing.T) {
	g := connectedER(t, 4, 25, 0.25)
	s := testSpectrum(t, g)
	for _, reg := range []Regularizer{Entropy, LogDet} {
		prev := math.Inf(1)
		for _, eta := range []float64{0.1, 0.5, 2, 8, 32, 128} {
			sol, err := Solve(s, reg, eta, 0)
			if err != nil {
				t.Fatal(err)
			}
			tr := sol.TraceObjective()
			if tr > prev+1e-9 {
				t.Errorf("%v: Tr(LX) increased at eta=%v: %v > %v", reg, eta, tr, prev)
			}
			prev = tr
		}
		// Large η limit ≈ λ₂.
		lam2 := s.NontrivialValues()[0]
		sol, err := Solve(s, reg, 1e4, 0)
		if err != nil {
			t.Fatal(err)
		}
		if reg == Entropy && !almostEq(sol.TraceObjective(), lam2, 1e-2) {
			t.Errorf("entropy eta→∞ trace = %v, want ≈ λ₂ = %v", sol.TraceObjective(), lam2)
		}
	}
}

func TestSolveErrors(t *testing.T) {
	g := gen.Cycle(5)
	s := testSpectrum(t, g)
	if _, err := Solve(s, Entropy, -1, 0); err == nil {
		t.Fatal("negative eta accepted")
	}
	if _, err := Solve(s, PNorm, 1, 1); err == nil {
		t.Fatal("p = 1 accepted")
	}
	if _, err := Solve(s, Regularizer(99), 1, 0); err == nil {
		t.Fatal("unknown regularizer accepted")
	}
	if _, err := HeatKernelOperator(s, 0); err == nil {
		t.Fatal("t=0 accepted")
	}
	if _, err := PageRankOperator(s, 1); err == nil {
		t.Fatal("gamma=1 accepted")
	}
	if _, err := LazyWalkOperator(s, 0.3, 5); err == nil {
		t.Fatal("alpha<0.5 accepted")
	}
	if _, err := LazyWalkOperator(s, 0.6, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestSolutionMatrixProperties(t *testing.T) {
	g := gen.Dumbbell(4, 0)
	s := testSpectrum(t, g)
	sol, err := Solve(s, Entropy, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	x := sol.Matrix()
	n := x.Rows
	var trace float64
	for i := 0; i < n; i++ {
		trace += x.At(i, i)
		for j := i + 1; j < n; j++ {
			if math.Abs(x.At(i, j)-x.At(j, i)) > 1e-10 {
				t.Errorf("solution matrix not symmetric at (%d,%d)", i, j)
			}
		}
	}
	if !almostEq(trace, 1, 1e-9) {
		t.Errorf("trace = %v, want 1", trace)
	}
	// X v₁ = 0: the feasibility constraint X D^{1/2}1 = 0.
	v1 := spectral.TrivialEigvec(g)
	y := x.MulVec(v1)
	if vec.Norm2(y) > 1e-8 {
		t.Errorf("||X v₁|| = %v, want 0", vec.Norm2(y))
	}
	// Tr(𝓛X) from the matrix equals the spectral TraceObjective.
	lap := spectral.NormalizedLaplacian(g).Dense()
	var traceLX float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			traceLX += lap.At(i, j) * x.At(j, i)
		}
	}
	if d := math.Abs(traceLX - sol.TraceObjective()); d > 1e-8 {
		t.Errorf("matrix trace objective differs by %v", d)
	}
}

func TestRegValueStringer(t *testing.T) {
	if Entropy.String() != "entropy" || LogDet.String() != "log-det" || PNorm.String() != "p-norm" {
		t.Fatal("Stringer labels wrong")
	}
}

// Property: for random connected graphs and random η, the closed-form
// optimum has objective no worse than 200 random feasible points.
func TestPropClosedFormIsOptimal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := gen.ErdosRenyi(6+rng.Intn(10), 0.5, rng)
		if err != nil || !g.IsConnected() {
			return true
		}
		s, err := NewSpectrum(g)
		if err != nil {
			return true
		}
		eta := 0.1 + rng.Float64()*5
		regs := []Regularizer{Entropy, LogDet, PNorm}
		reg := regs[rng.Intn(3)]
		p := 1.5 + rng.Float64()*2
		sol, err := Solve(s, reg, eta, p)
		if err != nil {
			return false
		}
		best := sol.Objective(reg, eta, p)
		m := len(sol.Weights)
		for trial := 0; trial < 200; trial++ {
			w := make([]float64, m)
			var z float64
			for i := range w {
				w[i] = rng.ExpFloat64() + 1e-9
				z += w[i]
			}
			for i := range w {
				w[i] /= z
			}
			cand := &Solution{Spectrum: s, Weights: w}
			if cand.Objective(reg, eta, p) < best-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
