package diffusion

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/gstore"
	"repro/internal/mat"
	"repro/internal/vec"
)

// walkMatrix assembles W_α = αI + (1−α)·A·D^{-1} as CSR, the matrix the
// dense diffusions multiplied by before they read the graph's rows in
// place (α = 0 is the walk matrix M): diagonal α, entry (i,j)
// (1−α)·(w·(1/deg j)), summed and sorted by mat.NewCSR, which drops
// exact zeros. It is mulWalk's bit-level oracle.
func walkMatrix(g gstore.Graph, alpha float64) *mat.CSR {
	n := g.N()
	var trips []mat.Triplet
	for i := 0; i < n; i++ {
		trips = append(trips, mat.Triplet{Row: i, Col: i, Val: alpha})
		it := g.Neighbors(i)
		for j, w, ok := it.Next(); ok; j, w, ok = it.Next() {
			trips = append(trips, mat.Triplet{Row: i, Col: j, Val: (1 - alpha) * (w * (1 / g.Degree(j)))})
		}
	}
	m, err := mat.NewCSR(n, n, trips)
	if err != nil {
		panic(err)
	}
	return m
}

// oracleGraph is a random graph on n nodes whose last few nodes have no
// edge, with unit, quarter-valued (float32-exact) or float64 weights.
func oracleGraph(t *testing.T, rng *rand.Rand, form graph.WeightForm) gstore.Graph {
	t.Helper()
	n := 5 + rng.Intn(36)
	linked := n - 1 - rng.Intn(3)
	b := graph.NewBuilder(n)
	seen := map[[2]int]bool{}
	for range 3 * n {
		u, v := rng.Intn(linked), rng.Intn(linked)
		if seen[[2]int{min(u, v), max(u, v)}] {
			continue // a parallel edge would sum unit weights to 2
		}
		seen[[2]int{min(u, v), max(u, v)}] = true
		w := 1.0
		switch form {
		case graph.WeightsF32:
			w = float64(1+rng.Intn(12)) / 4
		case graph.WeightsF64:
			w = 0.05 + rng.Float64()
		}
		b.AddWeightedEdge(u, v, w)
	}
	hg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := max(graph.DetectWeightForm(hg.RawWeights32()), graph.DetectWeightForm(hg.RawWeights64())); got != form {
		t.Fatalf("graph has weight form %d, want %d", got, form)
	}
	return hg
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestInPlaceMatchesMatrixOracle: mulWalk and the three diffusions that
// run on it are bit-equal to the same products and loops over the
// assembled matrix, on unit, float32-exact and float64 graphs with
// isolated nodes, for α ∈ {0, 0.5, 1}.
func TestInPlaceMatchesMatrixOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, form := range []graph.WeightForm{graph.WeightsUnit, graph.WeightsF32, graph.WeightsF64} {
		for trial := 0; trial < 12; trial++ {
			g := oracleGraph(t, rng, form)
			n := g.N()
			inv := invDegrees(g)
			seed, err := SeedVector(n, []int{rng.Intn(n), rng.Intn(n), n - 1})
			if err != nil {
				t.Fatal(err)
			}
			m := walkMatrix(g, 0)
			for _, alpha := range []float64{0, 0.5, 1} {
				w := walkMatrix(g, alpha)
				x := make([]float64, n)
				for i := range x {
					x[i] = 2*rng.Float64() - 1
				}
				y := make([]float64, n)
				if mulWalk(g, inv, alpha, x, y); !sameBits(y, w.MulVec(x, nil)) {
					t.Fatalf("form %d trial %d α=%v: mulWalk differs from the matrix product", form, trial, alpha)
				}
				want := vec.Clone(seed)
				for k := 1; k <= 12; k++ {
					want = w.MulVec(want, nil)
					got, err := LazyWalk(g, seed, alpha, k)
					if err != nil {
						t.Fatal(err)
					}
					if !sameBits(got, want) {
						t.Fatalf("form %d trial %d α=%v: LazyWalk k=%d differs from the matrix walk", form, trial, alpha, k)
					}
				}
			}
			for _, gamma := range []float64{0.15, 0.6} {
				got, err := PageRank(g, seed, gamma, PageRankOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if want := matrixPageRank(m, seed, gamma); !sameBits(got, want) {
					t.Fatalf("form %d trial %d γ=%v: PageRank differs from the matrix iteration", form, trial, gamma)
				}
			}
			for _, tm := range []float64{0.5, 3, 17} {
				got, err := HeatKernel(g, seed, tm, HeatKernelOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if want := matrixHeat(m, seed, tm); !sameBits(got, want) {
					t.Fatalf("form %d trial %d t=%v: HeatKernel differs from the matrix series", form, trial, tm)
				}
			}
		}
	}
}

// matrixPageRank is PageRank's Richardson iteration at its default
// tolerance over the assembled walk matrix.
func matrixPageRank(m *mat.CSR, seed []float64, gamma float64) []float64 {
	x := vec.Clone(seed)
	y := make([]float64, len(seed))
	for {
		y = m.MulVec(x, y)
		for i := range y {
			y[i] = gamma*seed[i] + (1-gamma)*y[i]
		}
		if vec.MaxAbsDiff(x, y) < 1e-12 {
			return y
		}
		x, y = y, x
	}
}

// matrixHeat is HeatKernel's truncated series at its default tolerance
// over the assembled walk matrix.
func matrixHeat(m *mat.CSR, seed []float64, t float64) []float64 {
	term, out := vec.Clone(seed), vec.Clone(seed)
	weight, sumWeights := 1.0, 1.0
	for k := 1; sumWeights < (1-1e-12)*math.Exp(t); k++ {
		term = m.MulVec(term, nil)
		weight *= t / float64(k)
		vec.Axpy(weight, term, out)
		sumWeights += weight
	}
	vec.Scale(math.Exp(-t), out)
	return out
}

// TestWalkMatrixColumnStochastic: M = A·D^{-1} moves all of a unit mass
// on any node with an edge, so each column of M sums to 1.
func TestWalkMatrixColumnStochastic(t *testing.T) {
	g := gen.Lollipop(4, 3)
	n := g.N()
	inv := invDegrees(g)
	e, y := make([]float64, n), make([]float64, n)
	for j := 0; j < n; j++ {
		e[j] = 1
		mulWalk(g, inv, 0, e, y)
		e[j] = 0
		if s := sum(y); !almostEq(s, 1, 1e-12) {
			t.Fatalf("column %d sums to %v, want 1", j, s)
		}
	}
}

// TestLazyWalkMatrix: on a cycle one lazy step keeps α of a node's mass
// and sends (1−α)/2 to each neighbour; α outside [0,1] is refused.
func TestLazyWalkMatrix(t *testing.T) {
	g := gen.Cycle(5)
	e := []float64{1, 0, 0, 0, 0}
	y, err := LazyWalk(g, e, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(y[0], 0.5, 1e-12) || !almostEq(y[1], 0.25, 1e-12) || !almostEq(y[4], 0.25, 1e-12) {
		t.Fatalf("one lazy step from node 0 = %v", y)
	}
	if _, err := LazyWalk(g, e, 1.5, 1); err == nil {
		t.Fatal("alpha out of range accepted")
	}
}
