package regsdp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestSampleEdgesKeepsAllAtQ1(t *testing.T) {
	g := gen.RingOfCliques(4, 5)
	rng := rand.New(rand.NewSource(1))
	s, err := SampleEdges(g, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	if s.M() != g.M() || s.N() != g.N() {
		t.Errorf("q=1 sample changed the graph: %d/%d edges, %d/%d nodes",
			s.M(), g.M(), s.N(), g.N())
	}
}

func TestSampleEdgesThinsAtLowQ(t *testing.T) {
	g := gen.Complete(20) // 190 edges
	rng := rand.New(rand.NewSource(2))
	s, err := SampleEdges(g, 0.3, rng)
	if err != nil {
		t.Fatal(err)
	}
	if s.M() >= g.M() {
		t.Errorf("q=0.3 sample kept all %d edges", s.M())
	}
	// Binomial(190, 0.3) has mean 57 and sd ~6.3; 5 sigma bounds.
	if s.M() < 25 || s.M() > 90 {
		t.Errorf("sample size %d far outside binomial range", s.M())
	}
}

func TestSampleEdgesValidation(t *testing.T) {
	g := gen.Cycle(5)
	rng := rand.New(rand.NewSource(3))
	for _, q := range []float64{0, -0.5, 1.5} {
		if _, err := SampleEdges(g, q, rng); err == nil {
			t.Errorf("q=%v should be rejected", q)
		}
	}
}

func TestConnectedSampleEventuallyConnected(t *testing.T) {
	g := gen.RingOfCliques(4, 6)
	rng := rand.New(rand.NewSource(4))
	s, err := ConnectedSample(g, 0.8, 50, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !s.IsConnected() {
		t.Error("ConnectedSample returned a disconnected graph")
	}
}

func TestConnectedSampleFailsOnHopelessNoise(t *testing.T) {
	// A cycle at q=0.05 virtually never stays connected.
	g := gen.Cycle(40)
	rng := rand.New(rand.NewSource(5))
	if _, err := ConnectedSample(g, 0.05, 10, rng); err == nil {
		t.Error("expected failure for q=0.05 on a cycle")
	}
}

func TestBayesRiskNoNoiseNoBenefit(t *testing.T) {
	// At q=1 every sample equals the population, the unregularized
	// estimator has zero risk, and regularization can only hurt.
	population := gen.RingOfCliques(4, 5)
	rng := rand.New(rand.NewSource(8))
	res, err := BayesRisk(population, 1, []float64{1, 10, 100}, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.UnregularizedRisk > 1e-8 {
		t.Errorf("noise-free unregularized risk = %g, want ~0", res.UnregularizedRisk)
	}
	if res.BestRisk < res.UnregularizedRisk-1e-12 {
		t.Error("regularization cannot beat the exact estimator on noise-free data")
	}
}

func TestBayesRiskValidation(t *testing.T) {
	g := gen.RingOfCliques(3, 4)
	rng := rand.New(rand.NewSource(9))
	if _, err := BayesRisk(g, 0.8, nil, 3, rng); err == nil {
		t.Error("empty etas should error")
	}
	if _, err := BayesRisk(g, 0.8, []float64{-1}, 3, rng); err == nil {
		t.Error("negative eta should error")
	}
	if _, err := BayesRisk(g, 0.8, []float64{1}, 0, rng); err == nil {
		t.Error("zero trials should error")
	}
	// Disconnected population is rejected by NewSpectrum.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	disc, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BayesRisk(disc, 0.8, []float64{1}, 1, rng); err == nil {
		t.Error("disconnected population should error")
	}
}

func TestFrobeniusDistIsAMetricOnExamples(t *testing.T) {
	g := gen.RingOfCliques(3, 4)
	spec, err := NewSpectrum(g)
	if err != nil {
		t.Fatal(err)
	}
	x := SolveUnregularized(spec).Matrix()
	if d := frobeniusDist(x, x); d != 0 {
		t.Errorf("d(x,x) = %g", d)
	}
	sol, err := Solve(spec, Entropy, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	y := sol.Matrix()
	if d1, d2 := frobeniusDist(x, y), frobeniusDist(y, x); math.Abs(d1-d2) > 1e-14 {
		t.Errorf("asymmetric: %g vs %g", d1, d2)
	}
}
