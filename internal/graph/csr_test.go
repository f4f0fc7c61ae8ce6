package graph

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// buildTestGraph returns a small weighted graph with a known CSR.
func buildTestGraph(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(5)
	b.AddWeightedEdge(0, 1, 2)
	b.AddWeightedEdge(1, 2, 0.5)
	b.AddWeightedEdge(0, 2, 1)
	b.AddWeightedEdge(3, 4, 3)
	b.AddWeightedEdge(0, 1, 1) // parallel, merges to 3
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFromCSRRoundTrip(t *testing.T) {
	g := buildTestGraph(t)
	rowPtr, adj, w := g.CSR()
	// Copy: FromCSR takes ownership.
	g2, err := FromCSR(
		append([]int(nil), rowPtr...),
		append([]int(nil), adj...),
		append([]float64(nil), w...),
	)
	if err != nil {
		t.Fatal(err)
	}
	r2, a2, w2 := g2.CSR()
	if !reflect.DeepEqual(rowPtr, r2) || !reflect.DeepEqual(adj, a2) || !reflect.DeepEqual(w, w2) {
		t.Fatal("CSR arrays changed through FromCSR")
	}
	if !reflect.DeepEqual(g.Degrees(), g2.Degrees()) {
		t.Fatalf("degrees differ: %v vs %v", g.Degrees(), g2.Degrees())
	}
	if g.Volume() != g2.Volume() || g.N() != g2.N() || g.M() != g2.M() {
		t.Fatalf("scalars differ: (%v,%d,%d) vs (%v,%d,%d)",
			g.Volume(), g.N(), g.M(), g2.Volume(), g2.N(), g2.M())
	}
}

func TestFromCSRRejectsInvalid(t *testing.T) {
	cases := map[string]struct {
		rowPtr []int
		adj    []int
		w      []float64
	}{
		"empty rowPtr":        {[]int{}, nil, nil},
		"rowPtr not 0-based":  {[]int{1, 1}, nil, nil},
		"rowPtr decreases":    {[]int{0, 2, 1, 2}, []int{1, 2}, []float64{1, 1}},
		"rowPtr/adj mismatch": {[]int{0, 1}, []int{0, 0}, []float64{1, 1}},
		"w length mismatch":   {[]int{0, 1, 2}, []int{1, 0}, []float64{1}},
		"odd entries":         {[]int{0, 1}, []int{0}, []float64{1}},
		"self-loop":           {[]int{0, 1, 2}, []int{0, 0}, []float64{1, 1}},
		"neighbor range":      {[]int{0, 1, 2}, []int{5, 0}, []float64{1, 1}},
		"row not sorted":      {[]int{0, 2, 3, 4, 5}, []int{2, 1, 0, 0, 0}, []float64{1, 1, 1, 1, 1}},
		"duplicate neighbor":  {[]int{0, 2, 3, 3}, []int{1, 1, 0}, []float64{1, 1, 2}},
		"zero weight":         {[]int{0, 1, 2}, []int{1, 0}, []float64{0, 0}},
		"nan weight":          {[]int{0, 1, 2}, []int{1, 0}, []float64{math.NaN(), math.NaN()}},
		"asymmetric weight":   {[]int{0, 1, 2}, []int{1, 0}, []float64{1, 2}},
		"missing mirror":      {[]int{0, 1, 1, 2}, []int{1, 1}, []float64{1, 1}},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := FromCSR(c.rowPtr, c.adj, c.w); err == nil {
				t.Fatalf("FromCSR accepted %s", name)
			}
		})
	}
}

// TestCSRAliasesInternalStorage pins the documented aliasing contract
// of CSR(): repeated calls return views of the same backing arrays (no
// defensive copies), and Neighbors hands out sub-slices of those same
// arrays. The kernel's zero-copy cost model and the snapshot writer
// both depend on this staying true.
func TestCSRAliasesInternalStorage(t *testing.T) {
	g := buildTestGraph(t)
	r1, a1, w1 := g.CSR()
	r2, a2, w2 := g.CSR()
	if &r1[0] != &r2[0] || &a1[0] != &a2[0] || &w1[0] != &w2[0] {
		t.Fatal("CSR() returned fresh copies; it must alias internal storage")
	}
	if &r1[0] != &g.rowPtr[0] || &a1[0] != &g.adj[0] || &w1[0] != &g.w[0] {
		t.Fatal("CSR() slices do not alias the graph's own arrays")
	}
	for u := 0; u < g.N(); u++ {
		nbrs, wts := g.Neighbors(u)
		if len(nbrs) == 0 {
			continue
		}
		if &nbrs[0] != &a1[r1[u]] || &wts[0] != &w1[r1[u]] {
			t.Fatalf("Neighbors(%d) is not a sub-slice of the CSR arrays", u)
		}
	}
}

// TestUnitWeights: the flag is decided at construction by both
// constructors, on the stored (merged) weights, and follows a single
// weight pair nudged off 1.0 and back.
func TestUnitWeights(t *testing.T) {
	build := func(edges [][3]float64) *Graph {
		t.Helper()
		b := NewBuilder(4)
		for _, e := range edges {
			b.AddWeightedEdge(int(e[0]), int(e[1]), e[2])
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	for _, tc := range []struct {
		name  string
		edges [][3]float64
		want  bool
	}{
		{"edgeless", nil, true},
		{"unit path", [][3]float64{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}}, true},
		{"duplicate edge merges to 2", [][3]float64{{0, 1, 1}, {1, 2, 1}, {1, 0, 1}}, false},
		{"halves merge to 1", [][3]float64{{0, 1, 0.5}, {1, 0, 0.5}, {2, 3, 1}}, true},
		{"one weighted edge", [][3]float64{{0, 1, 1}, {1, 2, 1.5}}, false},
		{"ignored self-loop weight", [][3]float64{{0, 1, 1}, {2, 2, 7}}, true},
	} {
		g := build(tc.edges)
		if got := g.UnitWeights(); got != tc.want {
			t.Errorf("Build %s: UnitWeights = %v, want %v", tc.name, got, tc.want)
		}
		rowPtr, adj, w := g.CSR()
		g2, err := FromCSR(append([]int(nil), rowPtr...), append([]int(nil), adj...), append([]float64(nil), w...))
		if err != nil {
			t.Fatalf("FromCSR %s: %v", tc.name, err)
		}
		if got := g2.UnitWeights(); got != tc.want {
			t.Errorf("FromCSR %s: UnitWeights = %v, want %v", tc.name, got, tc.want)
		}
	}

	// Nudge the last edge's two mirrored entries one ulp off 1.0: not
	// unit. Nudge them back: unit again.
	rowPtr, adj, w := build([][3]float64{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}}).CSR()
	fromCSR := func(x float64) *Graph {
		t.Helper()
		w2 := append([]float64(nil), w...)
		w2[len(w2)-1], w2[len(w2)-2] = x, x // rows 3→2 and 2→3
		g, err := FromCSR(append([]int(nil), rowPtr...), append([]int(nil), adj...), w2)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	if fromCSR(math.Nextafter(1, 2)).UnitWeights() {
		t.Error("FromCSR: a weight one ulp above 1.0 still reports unit weights")
	}
	if !fromCSR(1).UnitWeights() {
		t.Error("FromCSR: all-ones weights do not report unit weights")
	}
}

// TestBuildRowsAscendingByConstruction feeds Build random edge lists —
// duplicates, both orientations, self-loops, non-unit weights — and
// requires what Build promises without sorting its rows: FromCSR's
// strictly-ascending validation accepts the CSR, the degree and volume
// floats survive the round trip bit for bit, and every row holds
// exactly the merged neighbour set.
func TestBuildRowsAscendingByConstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	weights := []float64{1, 1, 0.5, 2.25, 0.1, 0.3, 7}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		b := NewBuilder(n)
		want := make([]map[int]float64, n)
		for i := range want {
			want[i] = map[int]float64{}
		}
		for e := rng.Intn(4 * n); e > 0; e-- {
			u, v := rng.Intn(n), rng.Intn(n)
			if rng.Intn(4) == 0 && n > 1 { // repeat an edge, often reversed
				v = (u + 1) % n
			}
			w := weights[rng.Intn(len(weights))]
			b.AddWeightedEdge(u, v, w)
			if u != v {
				want[u][v] += w
				want[v][u] += w
			}
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		rowPtr, adj, w := g.CSR()
		g2, err := FromCSR(append([]int(nil), rowPtr...), append([]int(nil), adj...), append([]float64(nil), w...))
		if err != nil {
			t.Fatalf("trial %d: Build's CSR fails FromCSR: %v", trial, err)
		}
		for u := 0; u < n; u++ {
			if math.Float64bits(g.Degree(u)) != math.Float64bits(g2.Degree(u)) {
				t.Fatalf("trial %d: degree of %d is %v after Build, %v after FromCSR", trial, u, g.Degree(u), g2.Degree(u))
			}
			nbrs, wts := g.Neighbors(u)
			if len(nbrs) != len(want[u]) {
				t.Fatalf("trial %d: row %d has %d neighbours, want %d", trial, u, len(nbrs), len(want[u]))
			}
			for k, v := range nbrs {
				if ww, ok := want[u][v]; !ok || math.Abs(wts[k]-ww) > 1e-12*ww {
					t.Fatalf("trial %d: row %d holds (%d, %v), want weight %v", trial, u, v, wts[k], ww)
				}
			}
		}
		if math.Float64bits(g.Volume()) != math.Float64bits(g2.Volume()) {
			t.Fatalf("trial %d: volume %v after Build, %v after FromCSR", trial, g.Volume(), g2.Volume())
		}
	}
}
