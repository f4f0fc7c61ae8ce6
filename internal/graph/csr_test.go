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
	g2 := FromCSR(
		append([]int(nil), rowPtr...),
		append([]int(nil), adj...),
		append([]float64(nil), w...),
	)
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

// TestBuildRowsAscendingByConstruction feeds Build random edge lists —
// duplicates, both orientations, self-loops, non-unit weights — and
// requires what Build promises without sorting its rows: every row is
// strictly ascending and holds exactly the merged neighbour set, and
// the degree and volume floats survive a FromCSR round trip bit for
// bit. (gstore's TestBuildMatchesNewCompact runs the full structural
// validation on the builder's CSR.)
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
		g2 := FromCSR(append([]int(nil), rowPtr...), append([]int(nil), adj...), append([]float64(nil), w...))
		for u := 0; u < n; u++ {
			if math.Float64bits(g.Degree(u)) != math.Float64bits(g2.Degree(u)) {
				t.Fatalf("trial %d: degree of %d is %v after Build, %v after FromCSR", trial, u, g.Degree(u), g2.Degree(u))
			}
			nbrs, wts := g.Neighbors(u)
			if len(nbrs) != len(want[u]) {
				t.Fatalf("trial %d: row %d has %d neighbours, want %d", trial, u, len(nbrs), len(want[u]))
			}
			for k, v := range nbrs {
				if k > 0 && v <= nbrs[k-1] {
					t.Fatalf("trial %d: row %d is not strictly ascending: %v", trial, u, nbrs)
				}
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
