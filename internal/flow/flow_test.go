package flow

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMaxFlowSimplePath(t *testing.T) {
	// s --2--> a --1--> t : flow 1.
	net := NewNetwork(3)
	if err := net.AddArc(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := net.AddArc(1, 2, 1); err != nil {
		t.Fatal(err)
	}
	v, err := net.MaxFlow(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(v, 1, 1e-12) {
		t.Fatalf("flow = %v, want 1", v)
	}
}

func TestMaxFlowClassic(t *testing.T) {
	// Standard 6-node example with max flow 23 (CLRS).
	net := NewNetwork(6)
	arcs := []struct {
		u, v int
		c    float64
	}{
		{0, 1, 16}, {0, 2, 13}, {1, 2, 10}, {2, 1, 4}, {1, 3, 12},
		{3, 2, 9}, {2, 4, 14}, {4, 3, 7}, {3, 5, 20}, {4, 5, 4},
	}
	for _, a := range arcs {
		if err := net.AddArc(a.u, a.v, a.c); err != nil {
			t.Fatal(err)
		}
	}
	v, err := net.MaxFlow(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(v, 23, 1e-9) {
		t.Fatalf("flow = %v, want 23", v)
	}
}

func TestMaxFlowDisconnected(t *testing.T) {
	net := NewNetwork(4)
	if err := net.AddArc(0, 1, 5); err != nil {
		t.Fatal(err)
	}
	v, err := net.MaxFlow(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Fatalf("flow = %v, want 0", v)
	}
}

func TestNetworkErrors(t *testing.T) {
	net := NewNetwork(2)
	if err := net.AddArc(0, 0, 1); err == nil {
		t.Fatal("self arc accepted")
	}
	if err := net.AddArc(0, 5, 1); err == nil {
		t.Fatal("out of range accepted")
	}
	if err := net.AddArc(0, 1, -1); err == nil {
		t.Fatal("negative capacity accepted")
	}
	if err := net.AddArc(0, 1, math.NaN()); err == nil {
		t.Fatal("NaN capacity accepted")
	}
	if _, err := net.MaxFlow(0, 0); err == nil {
		t.Fatal("s == t accepted")
	}
	if _, err := net.MaxFlow(0, 9); err == nil {
		t.Fatal("bad sink accepted")
	}
}

func TestMinCutSide(t *testing.T) {
	// s -1- a -9- t : min cut separates {s} from {a, t}.
	net := NewNetwork(3)
	if err := net.AddArc(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := net.AddArc(1, 2, 9); err != nil {
		t.Fatal(err)
	}
	if _, err := net.MaxFlow(0, 2); err != nil {
		t.Fatal(err)
	}
	side, err := net.MinCutSide(0)
	if err != nil {
		t.Fatal(err)
	}
	if !side[0] || side[1] || side[2] {
		t.Fatalf("cut side = %v, want [true false false]", side)
	}
}

// stMinCut computes a plain minimum s–t edge cut of the graph
// (capacities are the edge weights) with MaxFlow and MinCutSide, and
// returns the source-side membership and the cut value.
func stMinCut(g *graph.Graph, s, t int) ([]bool, float64, error) {
	net := NewNetwork(g.N())
	var err error
	g.Edges(func(u, v int, w float64) {
		if err == nil {
			err = net.AddEdge(u, v, w)
		}
	})
	if err != nil {
		return nil, 0, err
	}
	val, err := net.MaxFlow(s, t)
	if err != nil {
		return nil, 0, err
	}
	side, err := net.MinCutSide(s)
	return side, val, err
}

func TestSTMinCutDumbbell(t *testing.T) {
	g := gen.Dumbbell(5, 0) // two K5 joined by one edge
	side, val, err := stMinCut(g, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(val, 1, 1e-9) {
		t.Fatalf("min cut = %v, want 1", val)
	}
	// Source side should be exactly the first clique.
	count := 0
	for u := 0; u < 5; u++ {
		if side[u] {
			count++
		}
	}
	if count != 5 || side[5] {
		t.Fatalf("cut side wrong: %v", side)
	}
}

// Max-flow equals min-cut (weak duality verified against exhaustive cut
// enumeration on random small graphs).
func TestPropMaxFlowMinCutDuality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(5)
		g, err := gen.ErdosRenyi(n, 0.5, rng)
		if err != nil {
			return false
		}
		s, tt := 0, n-1
		_, val, err := stMinCut(g, s, tt)
		if err != nil {
			return false
		}
		// Exhaustive min s-t cut.
		best := math.Inf(1)
		for mask := 0; mask < 1<<n; mask++ {
			if mask&1 == 0 || mask&(1<<(n-1)) != 0 {
				continue // require s in S, t out
			}
			inS := make([]bool, n)
			for i := 0; i < n; i++ {
				inS[i] = mask&(1<<i) != 0
			}
			if c := g.Cut(inS); c < best {
				best = c
			}
		}
		return almostEq(val, best, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMQIImprovesSloppyCut(t *testing.T) {
	// Dumbbell with a path; seed MQI with clique A plus a stray node from
	// the far end of the path (adjacent to clique B), which adds two cut
	// edges. MQI should drop the stray node.
	g := gen.Dumbbell(8, 4) // nodes 0..7 clique A, 8..15 clique B, 16..19 path
	sloppy := []int{0, 1, 2, 3, 4, 5, 6, 7, 19}
	phiBefore := g.ConductanceOfSet(sloppy)
	res, err := MQI(g, sloppy)
	if err != nil {
		t.Fatal(err)
	}
	if res.Conductance > phiBefore+1e-12 {
		t.Fatalf("MQI worsened conductance: %v -> %v", phiBefore, res.Conductance)
	}
	if res.Conductance >= phiBefore {
		t.Fatalf("MQI failed to strictly improve a sloppy cut (%v)", phiBefore)
	}
	// The improved set should still contain the clique.
	in := g.Membership(res.Set)
	for u := 0; u < 8; u++ {
		if !in[u] {
			t.Fatalf("MQI dropped clique node %d", u)
		}
	}
}

func TestMQIFixedPointOnOptimal(t *testing.T) {
	// One clique of the dumbbell is already locally optimal for MQI.
	g := gen.Dumbbell(6, 0)
	clique := []int{0, 1, 2, 3, 4, 5}
	phi := g.ConductanceOfSet(clique)
	res, err := MQI(g, clique)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(res.Conductance, phi, 1e-12) {
		t.Fatalf("MQI changed an optimal cut: %v -> %v", phi, res.Conductance)
	}
	if len(res.Set) != 6 {
		t.Fatalf("MQI shrank an optimal set to %d nodes", len(res.Set))
	}
}

func TestMQIErrors(t *testing.T) {
	g := gen.Dumbbell(4, 0)
	if _, err := MQI(g, nil); err == nil {
		t.Fatal("empty set accepted")
	}
	// Larger side must be rejected.
	big := []int{0, 1, 2, 3, 4}
	if _, err := MQI(g, big); err == nil {
		t.Fatal("large side accepted")
	}
}

// Property: MQI never increases conductance, and its output is a subset
// of its input.
func TestPropMQIMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := gen.ErdosRenyi(10+rng.Intn(15), 0.3, rng)
		if err != nil || !g.IsConnected() {
			return true
		}
		// Random set of about a third of the nodes, conditioned on being
		// the smaller-volume side.
		var set []int
		for u := 0; u < g.N(); u++ {
			if rng.Float64() < 0.3 {
				set = append(set, u)
			}
		}
		if len(set) == 0 || len(set) == g.N() {
			return true
		}
		inS := g.Membership(set)
		if g.VolumeOf(inS) > g.Volume()/2 {
			return true
		}
		phiBefore := g.Conductance(inS)
		if math.IsInf(phiBefore, 1) {
			return true
		}
		res, err := MQI(g, set)
		if err != nil {
			return false
		}
		if res.Conductance > phiBefore+1e-9 {
			return false
		}
		inBefore := inS
		for _, u := range res.Set {
			if !inBefore[u] {
				return false // not a subset
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestImproveBothSides(t *testing.T) {
	g := gen.Dumbbell(6, 2)
	// Pass the membership of the *larger* side; the helper should flip it.
	inS := make([]bool, g.N())
	for u := 0; u < g.N(); u++ {
		inS[u] = true
	}
	inS[0] = false
	res, err := ImproveBothSides(g, inS)
	if err != nil {
		t.Fatal(err)
	}
	if res.Conductance > g.ConductanceOfSet([]int{0})+1e-12 {
		t.Fatalf("ImproveBothSides got φ=%v, no better than the singleton", res.Conductance)
	}
}

var _ = graph.SetOf
