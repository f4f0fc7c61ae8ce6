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

// row collects u's cursor into slices.
func row(g *Graph, u int) (nbrs []int, wts []float64) {
	it := g.Neighbors(u)
	for v, w, ok := it.Next(); ok; v, w, ok = it.Next() {
		nbrs, wts = append(nbrs, v), append(wts, w)
	}
	return nbrs, wts
}

// TestFromCSRRoundTrip: a builder graph's CSR arrays, copied and handed
// to FromParts without degrees, come back as the same graph: arrays,
// degrees (summed from the rows), volume, n and m.
func TestFromCSRRoundTrip(t *testing.T) {
	g := buildTestGraph(t)
	g2, err := FromParts(KindCompact,
		append([]int64(nil), g.rowPtr...),
		append([]uint32(nil), g.adj...),
		append([]float32(nil), g.w32...),
		append([]float64(nil), g.w64...),
		nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.rowPtr, g2.rowPtr) || !reflect.DeepEqual(g.adj, g2.adj) ||
		!reflect.DeepEqual(g.w32, g2.w32) || !reflect.DeepEqual(g.w64, g2.w64) {
		t.Fatal("CSR arrays changed through FromParts")
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
// of the raw accessors: repeated calls return the graph's own arrays
// (no defensive copies), and a Neighbors cursor walks a sub-slice of
// those same arrays. The kernel's zero-copy cost model and the snapshot
// writer both depend on this staying true.
func TestCSRAliasesInternalStorage(t *testing.T) {
	g := buildTestGraph(t)
	r, a, w, d := g.RawRowPtr(), g.RawAdj(), g.RawWeights32(), g.Degrees()
	if w == nil {
		t.Fatal("the dyadic test graph does not store float32 weights")
	}
	if &r[0] != &g.rowPtr[0] || &a[0] != &g.adj[0] || &w[0] != &g.w32[0] || &d[0] != &g.deg[0] {
		t.Fatal("the raw accessors do not alias the graph's own arrays")
	}
	if &g.RawAdj()[0] != &a[0] || &g.RawWeights32()[0] != &w[0] {
		t.Fatal("a second call returned fresh copies")
	}
	for u := 0; u < g.N(); u++ {
		it := g.Neighbors(u)
		if len(it.adj32) == 0 {
			continue
		}
		if &it.adj32[0] != &a[r[u]] || &it.w32[0] != &w[r[u]] {
			t.Fatalf("Neighbors(%d) is not a sub-slice of the CSR arrays", u)
		}
	}
}

// TestBuildRowsAscendingByConstruction feeds Build random edge lists —
// duplicates, both orientations, self-loops, non-unit weights — and
// requires what Build promises without sorting its rows: every row is
// strictly ascending and holds exactly the merged neighbour set, and
// the arrays pass FromParts' validation, whose degrees summed from the
// rows match Build's bit for bit, and so does the volume.
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
		g2, err := FromParts(KindCompact, g.rowPtr, g.adj, g.w32, g.w64, nil, nil)
		if err != nil {
			t.Fatalf("trial %d: Build's CSR fails validation: %v", trial, err)
		}
		for u := 0; u < n; u++ {
			if math.Float64bits(g.Degree(u)) != math.Float64bits(g2.Degree(u)) {
				t.Fatalf("trial %d: degree of %d is %v after Build, %v from its row", trial, u, g.Degree(u), g2.Degree(u))
			}
			nbrs, wts := row(g, u)
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
			t.Fatalf("trial %d: volume %v after Build, %v from its rows", trial, g.Volume(), g2.Volume())
		}
	}
}
