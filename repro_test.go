package repro

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// The tests in this file exercise the public facade end to end the way
// the README's quickstart does: every exported entry point is called at
// least once on a realistic small workload, and cross-checks tie the
// facade's pieces together (diffusion vs regularized SDP, partitioners vs
// Cheeger, local vs global clustering).

func TestFacadeGraphBuildAndIO(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddWeightedEdge(1, 2, 2)
	b.AddEdge(2, 3)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 3 {
		t.Fatalf("n=%d m=%d, want 4, 3", g.N(), g.M())
	}
	var sb strings.Builder
	if err := g.WriteEdgeList(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != g.N() || back.M() != g.M() || back.Volume() != g.Volume() {
		t.Error("edge-list round trip changed the graph")
	}
}

func TestFacadeGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for name, g := range map[string]*Graph{
		"path":     Path(10),
		"cycle":    Cycle(10),
		"complete": Complete(6),
		"star":     Star(8),
		"grid":     Grid(3, 4),
		"lollipop": Lollipop(5, 4),
		"dumbbell": Dumbbell(5, 3),
		"ring":     RingOfCliques(3, 4),
		"caveman":  Caveman(3, 4),
	} {
		if g.N() == 0 || g.M() == 0 {
			t.Errorf("%s: degenerate graph", name)
		}
	}
	er, err := ErdosRenyi(30, 0.2, rng)
	if err != nil || er.N() != 30 {
		t.Fatalf("erdos-renyi: %v", err)
	}
	rr, err := RandomRegular(20, 4, rng)
	if err != nil {
		t.Fatalf("random-regular: %v", err)
	}
	for u := 0; u < rr.N(); u++ {
		if rr.Degree(u) != 4 {
			t.Fatalf("random-regular degree(%d) = %v", u, rr.Degree(u))
		}
	}
	ff, err := ForestFire(500, 0.35, rng)
	if err != nil || ff.N() != 500 {
		t.Fatalf("forest-fire: %v", err)
	}
}

func TestFacadeFiedlerAndCheeger(t *testing.T) {
	g := Dumbbell(8, 4)
	v2, lambda2, err := FiedlerVector(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(v2) != g.N() || lambda2 <= 0 {
		t.Fatalf("fiedler: len=%d lambda2=%v", len(v2), lambda2)
	}
	sp, err := SpectralPartition(g)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Conductance > math.Sqrt(2*lambda2)+1e-9 {
		t.Errorf("sweep phi %v violates Cheeger upper bound %v", sp.Conductance, math.Sqrt(2*lambda2))
	}
	if sp.Conductance < lambda2/2-1e-9 {
		t.Errorf("phi %v below lambda2/2 %v — impossible", sp.Conductance, lambda2/2)
	}
}

func TestFacadeDiffusionsAndSDP(t *testing.T) {
	g := RingOfCliques(4, 5)
	seed, err := SeedVector(g.N(), []int{0})
	if err != nil {
		t.Fatal(err)
	}
	hk, err := HeatKernel(g, seed, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := PageRank(g, seed, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	lz, err := LazyWalk(g, seed, 0.6, 5)
	if err != nil {
		t.Fatal(err)
	}
	for name, x := range map[string][]float64{"heat": hk, "pagerank": pr, "lazy": lz} {
		var mass float64
		for _, v := range x {
			mass += v
		}
		if math.Abs(mass-1) > 1e-8 {
			t.Errorf("%s mass = %v, want 1", name, mass)
		}
	}
	// The facade's regularized SDP agrees with the paper's Section 3.1
	// table: the heat-kernel solution at eta = t.
	sol, err := RegularizedSDP(g, Entropy, 2.0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Weights) != g.N()-1 {
		t.Fatalf("SDP weights: %d, want n-1=%d", len(sol.Weights), g.N()-1)
	}
	var total float64
	for _, w := range sol.Weights {
		if w < -1e-12 {
			t.Errorf("negative SDP weight %v", w)
		}
		total += w
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("SDP trace = %v, want 1", total)
	}
}

func TestFacadePartitioners(t *testing.T) {
	g := Dumbbell(10, 4)
	mqi, err := MetisMQI(g)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := SpectralPartition(g)
	if err != nil {
		t.Fatal(err)
	}
	// Both must find the bridge on a dumbbell (phi well under the clique
	// scale), and MQI's result is the conductance of its returned set.
	if mqi.Conductance > 0.1 || sp.Conductance > 0.1 {
		t.Errorf("dumbbell cut missed: mqi=%v spectral=%v", mqi.Conductance, sp.Conductance)
	}
	if got := Conductance(g, mqi.Set); math.Abs(got-mqi.Conductance) > 1e-12 {
		t.Errorf("reported mqi phi %v != recomputed %v", mqi.Conductance, got)
	}

	imp, err := Improve(g, mqi.Set)
	if err != nil {
		t.Fatal(err)
	}
	if imp.Conductance > mqi.Conductance+1e-12 {
		t.Errorf("Improve worsened: %v -> %v", mqi.Conductance, imp.Conductance)
	}
}

func TestFacadeLocalClustering(t *testing.T) {
	g := Caveman(4, 8)
	res, err := LocalCluster(g, []int{0}, 0.1, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Set) == 0 {
		t.Fatal("empty local cluster")
	}
	// The cave containing node 0 is nodes 0..7.
	inCave := 0
	for _, u := range res.Set {
		if u < 8 {
			inCave++
		}
	}
	if inCave < len(res.Set)/2 {
		t.Errorf("local cluster strayed from the seed cave: %d/%d inside", inCave, len(res.Set))
	}

	pushRes, err := ApproxPageRank(g, []int{0}, 0.1, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	if pushRes.WorkVolume <= 0 || len(pushRes.P) == 0 {
		t.Error("push produced no work or empty vector")
	}

	nib, err := Nibble(g, []int{0}, 1e-4, 20)
	if err != nil {
		t.Fatal(err)
	}
	if nib.Best == nil || len(nib.Best.Set) == 0 {
		t.Error("nibble found no sweep cut")
	}
	if nib.MaxSupport <= 0 {
		t.Error("nibble reported no support")
	}

	mov, err := MOV(g, []int{0}, -0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(mov.Vector) != g.N() {
		t.Error("MOV vector has wrong length")
	}
}

func TestFacadeNCPs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, err := ForestFire(800, 0.35, rng)
	if err != nil {
		t.Fatal(err)
	}
	spPts, err := SpectralNCP(g, rng)
	if err != nil {
		t.Fatal(err)
	}
	flPts, err := FlowNCP(g, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(spPts) == 0 || len(flPts) == 0 {
		t.Fatal("empty NCP")
	}
	for _, p := range append(spPts, flPts...) {
		if p.Conductance < 0 || p.Size <= 0 {
			t.Errorf("invalid NCP point %+v", p)
		}
	}
}
