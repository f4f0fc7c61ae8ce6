package ncp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// BestInSizeRange returns the minimum-conductance cluster with size in
// [lo, hi], or nil if none.
func (p *Profile) BestInSizeRange(lo, hi int) *Cluster {
	var best *Cluster
	for i := range p.Clusters {
		c := &p.Clusters[i]
		if len(c.Nodes) < lo || len(c.Nodes) > hi {
			continue
		}
		if best == nil || c.Conductance < best.Conductance {
			best = c
		}
	}
	return best
}

func TestEvaluateClique(t *testing.T) {
	// One clique of a ring of cliques: dense, diameter 1, avg path 1.
	g := gen.RingOfCliques(4, 6)
	nodes := []int{0, 1, 2, 3, 4, 5}
	m, err := Evaluate(g, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if m.Size != 6 {
		t.Fatalf("size = %d", m.Size)
	}
	if !almostEq(m.AvgPathLen, 1, 1e-12) {
		t.Fatalf("avg path = %v, want 1", m.AvgPathLen)
	}
	if m.Diameter != 1 {
		t.Fatalf("diameter = %d, want 1", m.Diameter)
	}
	if !almostEq(m.Density, 1, 1e-12) {
		t.Fatalf("density = %v, want 1", m.Density)
	}
	// Clique: internal conductance is high, external low → ratio << 1.
	if m.ExtIntRatio > 0.5 {
		t.Errorf("clique ext/int ratio = %v, expected small", m.ExtIntRatio)
	}
}

func TestEvaluatePathCluster(t *testing.T) {
	// A stringy cluster (path segment) has high avg path length compared
	// to a clique of the same size.
	g := gen.Lollipop(6, 20)
	pathSeg := []int{15, 16, 17, 18, 19, 20} // deep in the path
	m, err := Evaluate(g, pathSeg)
	if err != nil {
		t.Fatal(err)
	}
	if m.AvgPathLen < 2 {
		t.Errorf("path segment avg path = %v, expected stringy (> 2)", m.AvgPathLen)
	}
	clique := []int{0, 1, 2, 3, 4, 5}
	mc, err := Evaluate(g, clique)
	if err != nil {
		t.Fatal(err)
	}
	if mc.AvgPathLen >= m.AvgPathLen {
		t.Errorf("clique avg path %v not below path segment %v", mc.AvgPathLen, m.AvgPathLen)
	}
}

func TestEvaluateDisconnectedCluster(t *testing.T) {
	g := gen.RingOfCliques(4, 5)
	// Two nodes from opposite cliques: disconnected induced subgraph.
	m, err := Evaluate(g, []int{0, 10})
	if err != nil {
		t.Fatal(err)
	}
	if m.InternalConductance != 0 {
		t.Fatalf("disconnected internal conductance = %v, want 0", m.InternalConductance)
	}
	if !math.IsInf(m.ExtIntRatio, 1) {
		t.Fatalf("disconnected ratio = %v, want +Inf", m.ExtIntRatio)
	}
}

func TestEvaluateErrors(t *testing.T) {
	g := gen.Path(5)
	if _, err := Evaluate(g, nil); err == nil {
		t.Fatal("empty cluster accepted")
	}
	if _, err := Evaluate(g, []int{0, 1, 2, 3, 4}); err == nil {
		t.Fatal("whole-graph cluster accepted")
	}
}

func TestMinEnvelope(t *testing.T) {
	p := &Profile{Clusters: []Cluster{
		{Nodes: []int{0, 1, 2}, Conductance: 0.5},
		{Nodes: []int{3, 4, 5}, Conductance: 0.3},
		{Nodes: []int{0, 1, 2, 3, 4, 5, 6, 7}, Conductance: 0.2},
	}}
	env := p.MinEnvelope()
	if len(env) != 2 {
		t.Fatalf("envelope has %d buckets, want 2", len(env))
	}
	if env[0].Conductance != 0.3 {
		t.Fatalf("bucket min = %v, want 0.3", env[0].Conductance)
	}
}

func TestBestInSizeRange(t *testing.T) {
	p := &Profile{Clusters: []Cluster{
		{Nodes: []int{0, 1}, Conductance: 0.9},
		{Nodes: []int{0, 1, 2}, Conductance: 0.4},
		{Nodes: []int{0, 1, 2, 3, 4, 5}, Conductance: 0.1},
	}}
	best := p.BestInSizeRange(2, 4)
	if best == nil || best.Conductance != 0.4 {
		t.Fatalf("best in [2,4] = %+v", best)
	}
	if p.BestInSizeRange(100, 200) != nil {
		t.Fatal("empty range should return nil")
	}
}

func TestSpectralProfileOnRingOfCliques(t *testing.T) {
	g := gen.RingOfCliques(8, 8)
	rng := rand.New(rand.NewSource(1))
	prof, err := SpectralProfile(g, SpectralConfig{Seeds: 8, Alphas: []float64{0.1, 0.02}}, rng)
	if err != nil {
		t.Fatal(err)
	}
	// It must discover a clique-sized cluster with clique-cut quality.
	best := prof.BestInSizeRange(6, 10)
	if best == nil {
		t.Fatal("no cluster near clique size found")
	}
	cliquePhi := g.ConductanceOfSet([]int{0, 1, 2, 3, 4, 5, 6, 7})
	if best.Conductance > 2*cliquePhi {
		t.Errorf("spectral profile best φ = %v, clique cut is %v", best.Conductance, cliquePhi)
	}
}

func TestFlowProfileOnRingOfCliques(t *testing.T) {
	g := gen.RingOfCliques(8, 8)
	rng := rand.New(rand.NewSource(2))
	prof, err := FlowProfile(g, FlowConfig{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	best := prof.BestInSizeRange(6, 10)
	if best == nil {
		t.Fatal("no cluster near clique size found")
	}
	cliquePhi := g.ConductanceOfSet([]int{0, 1, 2, 3, 4, 5, 6, 7})
	if best.Conductance > cliquePhi+1e-9 {
		t.Errorf("flow profile best φ = %v, clique cut is %v (MQI should find it)", best.Conductance, cliquePhi)
	}
}

func TestProfilesTooSmallGraph(t *testing.T) {
	g := gen.Path(3)
	rng := rand.New(rand.NewSource(1))
	if _, err := SpectralProfile(g, SpectralConfig{}, rng); err == nil {
		t.Fatal("tiny graph accepted by spectral profile")
	}
	if _, err := FlowProfile(g, FlowConfig{}, rng); err == nil {
		t.Fatal("tiny graph accepted by flow profile")
	}
}

func TestEvaluateProfileDedupes(t *testing.T) {
	g := gen.RingOfCliques(4, 6)
	p := &Profile{Clusters: []Cluster{
		{Nodes: []int{0, 1, 2, 3, 4, 5}, Conductance: 0.05},
		{Nodes: []int{0, 1, 2, 3, 4, 5}, Conductance: 0.05}, // duplicate
		{Nodes: []int{6, 7, 8, 9, 10, 11}, Conductance: 0.04},
	}}
	ms, err := EvaluateProfile(g, p, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("deduped measures = %d, want 2", len(ms))
	}
}

// The core Figure 1 behaviour in miniature: on a whiskered expander,
// flow (MQI on bisections) reaches lower conductance, while the spectral
// clusters are at least as "nice" (avg path length) at comparable sizes.
func TestFig1ShapeMiniature(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g, err := gen.WhiskeredExpander(200, 6, 20, 6, rng)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := SpectralProfile(g, SpectralConfig{Seeds: 15, Alphas: []float64{0.2, 0.05, 0.01}}, rng)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := FlowProfile(g, FlowConfig{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	bestSp := sp.BestInSizeRange(4, 40)
	bestFl := fl.BestInSizeRange(4, 40)
	if bestSp == nil || bestFl == nil {
		t.Fatal("profiles incomplete")
	}
	// Flow should at least match spectral on raw conductance (whiskers
	// are easy for both; MQI polishes).
	if bestFl.Conductance > bestSp.Conductance*1.5+1e-9 {
		t.Errorf("flow best φ=%v much worse than spectral %v", bestFl.Conductance, bestSp.Conductance)
	}
}
