package graph

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func triangle(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func pathGraph(t *testing.T, n int) *Graph {
	t.Helper()
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func randomGraph(seed int64, n int, p float64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				b.AddEdge(i, j)
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

func TestBuildBasics(t *testing.T) {
	g := triangle(t)
	if g.N() != 3 || g.M() != 3 {
		t.Fatalf("N=%d M=%d, want 3 3", g.N(), g.M())
	}
	if g.Volume() != 6 {
		t.Fatalf("Volume = %v, want 6", g.Volume())
	}
	for u := 0; u < 3; u++ {
		if g.Degree(u) != 2 {
			t.Fatalf("Degree(%d) = %v, want 2", u, g.Degree(u))
		}
	}
}

func TestParallelEdgesMerge(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 1)
	b.AddWeightedEdge(1, 0, 2.5)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1 (parallel edges merged)", g.M())
	}
	if nbrs, w := g.Neighbors(0); len(nbrs) != 1 || nbrs[0] != 1 || w[0] != 3.5 {
		t.Fatalf("Neighbors(0) = (%v, %v), want ([1], [3.5])", nbrs, w)
	}
}

func TestSelfLoopIgnored(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 0)
	b.AddEdge(0, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 1 || g.Degree(0) != 1 {
		t.Fatalf("self loop affected graph: M=%d deg0=%v", g.M(), g.Degree(0))
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 5)
	if _, err := b.Build(); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	b2 := NewBuilder(2)
	b2.AddWeightedEdge(0, 1, -1)
	if _, err := b2.Build(); err == nil {
		t.Fatal("negative weight accepted")
	}
	b3 := NewBuilder(2)
	b3.AddWeightedEdge(0, 1, math.NaN())
	if _, err := b3.Build(); err == nil {
		t.Fatal("NaN weight accepted")
	}
}

func TestNeighborsSorted(t *testing.T) {
	b := NewBuilder(5)
	b.AddEdge(2, 4)
	b.AddEdge(2, 0)
	b.AddEdge(2, 3)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	nbrs, _ := g.Neighbors(2)
	want := []int{0, 3, 4}
	for i, v := range want {
		if nbrs[i] != v {
			t.Fatalf("Neighbors(2) = %v, want %v", nbrs, want)
		}
	}
}

func TestCutAndConductance(t *testing.T) {
	// Dumbbell: two triangles joined by one edge.
	b := NewBuilder(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}, {0, 3}} {
		b.AddEdge(e[0], e[1])
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	inS := g.Membership([]int{0, 1, 2})
	if c := g.Cut(inS); c != 1 {
		t.Fatalf("Cut = %v, want 1", c)
	}
	// vol(S) = 2+2+3 = 7; total volume 14; φ = 1/7.
	if phi := g.Conductance(inS); math.Abs(phi-1.0/7) > 1e-12 {
		t.Fatalf("Conductance = %v, want 1/7", phi)
	}
}

func TestConductanceDegenerate(t *testing.T) {
	g := triangle(t)
	if !math.IsInf(g.Conductance(make([]bool, 3)), 1) {
		t.Error("empty set conductance should be +Inf")
	}
	if !math.IsInf(g.Conductance([]bool{true, true, true}), 1) {
		t.Error("full set conductance should be +Inf")
	}
}

// Property: φ(S) = φ(S̄) — conductance is symmetric under complement.
func TestPropConductanceComplementSymmetric(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(seed, 4+rng.Intn(12), 0.4)
		inS := make([]bool, g.N())
		any, all := false, true
		for i := range inS {
			inS[i] = rng.Intn(2) == 0
			if inS[i] {
				any = true
			} else {
				all = false
			}
		}
		if !any || all {
			return true
		}
		a, b := g.Conductance(inS), g.Conductance(Complement(inS))
		if math.IsInf(a, 1) && math.IsInf(b, 1) {
			return true
		}
		return math.Abs(a-b) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: cut(S) == cut(S̄) and vol(S) + vol(S̄) == vol(V).
func TestPropCutVolumeIdentities(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(seed+99, 3+rng.Intn(15), 0.3)
		inS := make([]bool, g.N())
		for i := range inS {
			inS[i] = rng.Intn(2) == 0
		}
		comp := Complement(inS)
		if math.Abs(g.Cut(inS)-g.Cut(comp)) > 1e-12 {
			return false
		}
		return math.Abs(g.VolumeOf(inS)+g.VolumeOf(comp)-g.Volume()) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBFS(t *testing.T) {
	g := pathGraph(t, 5)
	d := g.BFS(0)
	for i := 0; i < 5; i++ {
		if d[i] != i {
			t.Fatalf("BFS dist[%d] = %d, want %d", i, d[i], i)
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	d := g.BFS(0)
	if d[2] != -1 {
		t.Fatalf("unreachable node distance = %d, want -1", d[2])
	}
}

func TestConnectedComponents(t *testing.T) {
	b := NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	comp, nc := g.ConnectedComponents()
	if nc != 3 {
		t.Fatalf("components = %d, want 3", nc)
	}
	if comp[0] != comp[1] || comp[2] != comp[3] || comp[0] == comp[2] || comp[4] == comp[0] {
		t.Fatalf("labels = %v", comp)
	}
	if g.IsConnected() {
		t.Error("disconnected graph reported connected")
	}
}

func TestSubgraph(t *testing.T) {
	g := triangle(t)
	sg, mapping, err := g.Subgraph([]int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if sg.N() != 2 || sg.M() != 1 {
		t.Fatalf("subgraph N=%d M=%d", sg.N(), sg.M())
	}
	if mapping[0] != 0 || mapping[1] != 2 {
		t.Fatalf("mapping = %v", mapping)
	}
	if _, _, err := g.Subgraph([]int{0, 0}); err == nil {
		t.Fatal("duplicate node accepted")
	}
	if _, _, err := g.Subgraph([]int{9}); err == nil {
		t.Fatal("out-of-range node accepted")
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddWeightedEdge(1, 2, 2.5)
	b.AddEdge(0, 3)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() || g2.Volume() != g.Volume() {
		t.Fatalf("round trip mismatch: N %d/%d M %d/%d vol %v/%v",
			g.N(), g2.N(), g.M(), g2.M(), g.Volume(), g2.Volume())
	}
	if nbrs, w := g2.Neighbors(1); !slices.Equal(nbrs, []int{0, 2}) || w[1] != 2.5 {
		t.Fatalf("weighted edge lost: Neighbors(1) = (%v, %v)", nbrs, w)
	}
}

func TestReadEdgeListNoHeader(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("0 1\n1 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	if _, err := ReadEdgeList(strings.NewReader("0\n")); err == nil {
		t.Fatal("malformed line accepted")
	}
	if _, err := ReadEdgeList(strings.NewReader("a b\n")); err == nil {
		t.Fatal("non-numeric node accepted")
	}
	if _, err := ReadEdgeList(strings.NewReader("0 1 x\n")); err == nil {
		t.Fatal("bad weight accepted")
	}
}

func TestMembershipSetOf(t *testing.T) {
	g := triangle(t)
	in := g.Membership([]int{2, 0})
	s := SetOf(in)
	if len(s) != 2 || s[0] != 0 || s[1] != 2 {
		t.Fatalf("SetOf = %v", s)
	}
}

func TestEdgesIteration(t *testing.T) {
	g := triangle(t)
	count := 0
	g.Edges(func(u, v int, w float64) {
		if u >= v {
			t.Errorf("Edges emitted u >= v: (%d,%d)", u, v)
		}
		count++
	})
	if count != 3 {
		t.Fatalf("Edges emitted %d, want 3", count)
	}
}
