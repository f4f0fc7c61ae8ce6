package partition

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/gstore"
	"repro/internal/spectral"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSweepCutDumbbell(t *testing.T) {
	// Embedding that separates the two cliques perfectly must recover the
	// bridge cut.
	g := gen.Dumbbell(5, 0)
	emb := make([]float64, 10)
	for u := 0; u < 5; u++ {
		emb[u] = 1
	}
	res, err := SweepCut(g, emb)
	if err != nil {
		t.Fatal(err)
	}
	want := g.ConductanceOfSet([]int{0, 1, 2, 3, 4})
	if !almostEq(res.Conductance, want, 1e-12) {
		t.Fatalf("sweep φ = %v, want %v", res.Conductance, want)
	}
	if res.Prefix != 5 {
		t.Fatalf("prefix = %d, want 5", res.Prefix)
	}
}

func TestSweepCutMatchesBruteForcePrefixes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g, err := gen.ErdosRenyi(15, 0.3, rng)
	if err != nil {
		t.Fatal(err)
	}
	emb := make([]float64, 15)
	for i := range emb {
		emb[i] = rng.NormFloat64()
	}
	res, err := SweepCut(g, emb)
	if err != nil {
		t.Fatal(err)
	}
	// Brute force over prefixes of the sorted order.
	order := make([]int, 15)
	for i := range order {
		order[i] = i
	}
	for i := 0; i < 15; i++ {
		for j := i + 1; j < 15; j++ {
			if emb[order[j]] > emb[order[i]] {
				order[i], order[j] = order[j], order[i]
			}
		}
	}
	best := math.Inf(1)
	for k := 1; k < 15; k++ {
		phi := g.ConductanceOfSet(order[:k])
		if phi < best {
			best = phi
		}
	}
	if !almostEq(res.Conductance, best, 1e-9) {
		t.Fatalf("incremental sweep φ = %v, brute force %v", res.Conductance, best)
	}
}

func TestSweepCutErrors(t *testing.T) {
	g := gen.Path(4)
	if _, err := SweepCut(g, []float64{1, 2}); err == nil {
		t.Fatal("bad embedding length accepted")
	}
	if _, err := SweepCut(gen.Path(1), []float64{1}); err == nil {
		t.Fatal("single node accepted")
	}
	if _, err := SweepCutOrdered(gstore.Wrap(g), []int{0, 0}, 2); err == nil {
		t.Fatal("duplicate order accepted")
	}
	if _, err := SweepCutOrdered(gstore.Wrap(g), []int{7}, 1); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	if _, err := SweepCutOrdered(gstore.Wrap(g), nil, 3); err == nil {
		t.Fatal("empty order accepted")
	}
}

func TestSpectralDumbbell(t *testing.T) {
	g := gen.Dumbbell(8, 0)
	res, err := Spectral(g, spectral.FiedlerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Optimal cut: one clique; φ = 1/(8·7+1) = 1/57.
	if !almostEq(res.Conductance, 1.0/57, 1e-9) {
		t.Fatalf("spectral φ = %v, want 1/57", res.Conductance)
	}
	if len(res.Set) != 8 {
		t.Fatalf("spectral side size = %d, want 8", len(res.Set))
	}
}

func TestSpectralSatisfiesCheeger(t *testing.T) {
	for _, g := range []*graph.Graph{
		gen.Dumbbell(6, 3), gen.RingOfCliques(5, 4), gen.Lollipop(8, 20), gen.Grid(6, 8),
	} {
		res, err := Spectral(g, spectral.FiedlerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Conductance > res.CheegerUpper+1e-9 {
			t.Errorf("sweep φ = %v exceeds Cheeger bound √(2λ₂) = %v", res.Conductance, res.CheegerUpper)
		}
		if lower := res.Lambda2 / 2; res.Conductance < lower-1e-9 {
			t.Errorf("sweep φ = %v below λ₂/2 = %v (impossible)", res.Conductance, lower)
		}
	}
}

func TestMultilevelBisectDumbbell(t *testing.T) {
	g := gen.Dumbbell(10, 0)
	res, err := MultilevelBisect(g, MultilevelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(res.CutWeight, 1, 1e-9) {
		t.Fatalf("multilevel cut = %v, want 1 (the bridge)", res.CutWeight)
	}
}

func TestMultilevelBisectBalanced(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, err := gen.ErdosRenyi(300, 0.03, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MultilevelBisect(g, MultilevelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, in := range res.InS {
		if in {
			count++
		}
	}
	if count < 60 || count > 240 {
		t.Fatalf("bisection badly unbalanced: |S| = %d of 300", count)
	}
	if res.Levels < 2 {
		t.Errorf("expected coarsening to engage, levels = %d", res.Levels)
	}
}

func TestMultilevelBeatsRandomCut(t *testing.T) {
	g := gen.RingOfCliques(8, 8)
	res, err := MultilevelBisect(g, MultilevelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The crudest baseline: each node joins S with probability 1/2.
	rng := rand.New(rand.NewSource(1))
	var set []int
	for u := 0; u < g.N(); u++ {
		if rng.Intn(2) == 0 {
			set = append(set, u)
		}
	}
	phiRandom := g.ConductanceOfSet(set)
	if res.Conductance >= phiRandom {
		t.Fatalf("multilevel φ=%v not better than random φ=%v", res.Conductance, phiRandom)
	}
}

func TestMetisMQIPipeline(t *testing.T) {
	g := gen.Dumbbell(10, 4)
	res, err := MetisMQI(g, MultilevelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The pipeline must find a cut at least as good as the one-clique cut.
	cliquePhi := g.ConductanceOfSet([]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if res.Conductance > cliquePhi+1e-9 {
		t.Fatalf("Metis+MQI φ = %v, clique cut gives %v", res.Conductance, cliquePhi)
	}
}

func TestMetisMQINeverWorseThanBisect(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ff, err := gen.ForestFire(gen.ForestFireConfig{N: 400, FwdProb: 0.35, Ambs: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	bi, err := MultilevelBisect(ff, MultilevelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mq, err := flow.ImproveBothSides(ff, bi.InS)
	if err != nil {
		t.Fatal(err)
	}
	if mq.Conductance > bi.Conductance+1e-9 {
		t.Fatalf("MQI worsened the bisection: %v -> %v", bi.Conductance, mq.Conductance)
	}
}

func TestRecursiveBisect(t *testing.T) {
	g := gen.RingOfCliques(4, 6)
	labels, err := RecursiveBisectCtx(context.Background(), g, 4, MultilevelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sets := PartSets(labels)
	if len(sets) != 4 {
		t.Fatalf("parts = %d, want 4", len(sets))
	}
	total := 0
	for _, s := range sets {
		total += len(s)
	}
	if total != g.N() {
		t.Fatalf("parts cover %d of %d nodes", total, g.N())
	}
	if _, err := RecursiveBisectCtx(context.Background(), g, 0, MultilevelOptions{}); err == nil {
		t.Fatal("k=0 accepted")
	}
	one, err := RecursiveBisectCtx(context.Background(), g, 1, MultilevelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range one {
		if l != 0 {
			t.Fatal("k=1 should label everything 0")
		}
	}
}

func TestBFSGrowFindsWhisker(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, err := gen.WhiskeredExpander(60, 6, 4, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Growing from the whisker tip should find the whisker cut.
	tip := g.N() - 1
	res, err := BFSGrow(g, tip)
	if err != nil {
		t.Fatal(err)
	}
	if res.Conductance > 0.2 {
		t.Fatalf("BFS growth from whisker tip φ = %v, expected low", res.Conductance)
	}
}

// Property: multilevel bisection always produces a proper nonempty
// bipartition with the reported cut weight.
func TestPropMultilevelProperCut(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := gen.ErdosRenyi(10+rng.Intn(60), 0.1, rng)
		if err != nil || g.N() < 2 {
			return true
		}
		res, err := MultilevelBisect(g, MultilevelOptions{Seed: seed})
		if err != nil {
			return false
		}
		count := 0
		for _, in := range res.InS {
			if in {
				count++
			}
		}
		if count == 0 || count == g.N() {
			return false
		}
		return almostEq(res.CutWeight, g.Cut(res.InS), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: the spectral sweep respects the Cheeger upper bound on
// random connected graphs.
func TestPropSpectralCheeger(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := gen.ErdosRenyi(8+rng.Intn(20), 0.3, rng)
		if err != nil || !g.IsConnected() {
			return true
		}
		res, err := Spectral(g, spectral.FiedlerOptions{Seed: seed})
		if err != nil {
			return true // non-convergence is reported, not a soundness bug
		}
		return res.Conductance <= res.CheegerUpper+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
