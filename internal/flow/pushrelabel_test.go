package flow

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

// Clone returns a deep copy of the network, including any residual state.
// It lets callers run two max-flow algorithms on the same instance, or
// re-solve after a destructive MaxFlow call.
func (f *Network) Clone() *Network {
	c := &Network{n: f.n, head: make([][]int32, f.n)}
	for i, h := range f.head {
		c.head[i] = append([]int32(nil), h...)
	}
	c.to = append([]int32(nil), f.to...)
	c.cap = append([]float64(nil), f.cap...)
	return c
}

// MaxFlowPushRelabel computes the maximum s–t flow with the FIFO
// push-relabel algorithm (Goldberg–Tarjan) with the gap heuristic. Like
// MaxFlow, it consumes capacities: afterwards the Network holds the
// residual graph and MinCutSide reads the source side of a minimum cut.
//
// Push-relabel is the classical alternative to augmenting-path methods;
// the test suite cross-checks it against Dinic on every instance.
func (f *Network) MaxFlowPushRelabel(s, t int) (float64, error) {
	if s < 0 || s >= f.n || t < 0 || t >= f.n {
		return 0, fmt.Errorf("flow: terminals (%d,%d) out of range [0,%d)", s, t, f.n)
	}
	if s == t {
		return 0, errors.New("flow: source equals sink")
	}
	n := f.n
	height := make([]int, n)
	excess := make([]float64, n)
	curArc := make([]int, n)
	// count[h] = number of nodes at height h, for the gap heuristic.
	count := make([]int, 2*n+1)

	height[s] = n
	count[0] = n - 1
	count[n] = 1

	active := make([]int32, 0, n)
	inQueue := make([]bool, n)
	enqueue := func(v int) {
		if !inQueue[v] && v != s && v != t && excess[v] > eps {
			inQueue[v] = true
			active = append(active, int32(v))
		}
	}

	push := func(u int, ai int32) {
		v := int(f.to[ai])
		d := excess[u]
		if f.cap[ai] < d {
			d = f.cap[ai]
		}
		f.cap[ai] -= d
		f.cap[ai^1] += d
		excess[u] -= d
		excess[v] += d
		enqueue(v)
	}

	// Saturate all arcs out of the source.
	for _, ai := range f.head[s] {
		if f.cap[ai] > eps {
			excess[s] += f.cap[ai]
			push(s, ai)
		}
	}
	excess[s] = 0

	relabel := func(u int) {
		old := height[u]
		minH := 2 * n
		for _, ai := range f.head[u] {
			if f.cap[ai] > eps {
				if h := height[f.to[ai]]; h < minH {
					minH = h
				}
			}
		}
		if minH < 2*n {
			height[u] = minH + 1
		} else {
			height[u] = 2 * n
		}
		count[old]--
		if height[u] <= 2*n {
			count[height[u]]++
		}
		// Gap heuristic: if no node remains at height `old`, every node
		// above it (below n) can never reach the sink; lift them past n.
		if count[old] == 0 && old < n {
			for v := 0; v < n; v++ {
				if v != s && height[v] > old && height[v] < n {
					count[height[v]]--
					height[v] = n + 1
					count[height[v]]++
				}
			}
		}
	}

	discharge := func(u int) {
		for excess[u] > eps {
			if curArc[u] == len(f.head[u]) {
				relabel(u)
				curArc[u] = 0
				if height[u] >= 2*n {
					return
				}
				continue
			}
			ai := f.head[u][curArc[u]]
			v := f.to[ai]
			if f.cap[ai] > eps && height[u] == height[v]+1 {
				push(u, ai)
			} else {
				curArc[u]++
			}
		}
	}

	for len(active) > 0 {
		u := int(active[0])
		active = active[1:]
		inQueue[u] = false
		discharge(u)
	}
	return excess[t], nil
}

func TestPushRelabelSimplePath(t *testing.T) {
	// s -> a -> t with capacities 3 and 2: flow is 2.
	net := NewNetwork(3)
	mustArc(t, net, 0, 1, 3)
	mustArc(t, net, 1, 2, 2)
	got, err := net.MaxFlowPushRelabel(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-2) > 1e-12 {
		t.Errorf("flow = %g, want 2", got)
	}
}

func TestPushRelabelClassicDiamond(t *testing.T) {
	// The classic 4-node diamond with a cross edge.
	net := NewNetwork(4)
	mustArc(t, net, 0, 1, 10)
	mustArc(t, net, 0, 2, 10)
	mustArc(t, net, 1, 3, 10)
	mustArc(t, net, 2, 3, 10)
	mustArc(t, net, 1, 2, 1)
	got, err := net.MaxFlowPushRelabel(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-20) > 1e-9 {
		t.Errorf("flow = %g, want 20", got)
	}
}

func TestPushRelabelDisconnected(t *testing.T) {
	net := NewNetwork(4)
	mustArc(t, net, 0, 1, 5)
	mustArc(t, net, 2, 3, 5)
	got, err := net.MaxFlowPushRelabel(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("flow across disconnected pair = %g, want 0", got)
	}
}

func TestPushRelabelRejectsBadTerminals(t *testing.T) {
	net := NewNetwork(3)
	if _, err := net.MaxFlowPushRelabel(0, 0); err == nil {
		t.Error("s == t should error")
	}
	if _, err := net.MaxFlowPushRelabel(-1, 2); err == nil {
		t.Error("negative source should error")
	}
	if _, err := net.MaxFlowPushRelabel(0, 3); err == nil {
		t.Error("out-of-range sink should error")
	}
}

func TestPushRelabelMinCutSide(t *testing.T) {
	// Path s - a - b - t with bottleneck in the middle: the cut side found
	// after push-relabel must separate s from t and have value = flow.
	net := NewNetwork(4)
	mustArc(t, net, 0, 1, 5)
	mustArc(t, net, 1, 2, 1)
	mustArc(t, net, 2, 3, 5)
	flowVal, err := net.MaxFlowPushRelabel(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	side, err := net.MinCutSide(0)
	if err != nil {
		t.Fatal(err)
	}
	if !side[0] || side[3] {
		t.Fatalf("cut side must contain s and not t: %v", side)
	}
	if math.Abs(flowVal-1) > 1e-12 {
		t.Errorf("flow = %g, want 1", flowVal)
	}
}

// TestPushRelabelAgreesWithDinic cross-checks the two max-flow
// implementations on random graphs: identical flow values, and the
// extracted min cuts both have capacity equal to the flow.
func TestPushRelabelAgreesWithDinic(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(20)
		g, err := gen.ErdosRenyi(n, 0.35, rng)
		if err != nil || g.M() == 0 {
			return true // vacuous instance
		}
		s := rng.Intn(n)
		tt := rng.Intn(n)
		if s == tt {
			return true
		}
		build := func() *Network {
			net := NewNetwork(n)
			g.Edges(func(u, v int, w float64) {
				_ = net.AddEdge(u, v, w*(1+float64((u+v)%3)))
			})
			return net
		}
		d := build()
		p := build()
		fd, err1 := d.MaxFlow(s, tt)
		fp, err2 := p.MaxFlowPushRelabel(s, tt)
		if err1 != nil || err2 != nil {
			return false
		}
		if math.Abs(fd-fp) > 1e-6*(1+fd) {
			t.Logf("seed %d: dinic %g vs push-relabel %g", seed, fd, fp)
			return false
		}
		// Cut extracted from the push-relabel residual must be a valid
		// min cut: capacity equals the max-flow value.
		side, err := p.MinCutSide(s)
		if err != nil || !side[s] || side[tt] {
			return false
		}
		fresh := build()
		cutCap := cutCapacity(fresh, side)
		return math.Abs(cutCap-fp) <= 1e-6*(1+fp)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// cutCapacity sums the capacity of arcs crossing from the side to its
// complement in a network that has not been consumed by a flow run.
func cutCapacity(f *Network, side []bool) float64 {
	var total float64
	for u := 0; u < f.n; u++ {
		if !side[u] {
			continue
		}
		for _, ai := range f.head[u] {
			if !side[f.to[ai]] {
				total += f.cap[ai]
			}
		}
	}
	return total
}

func TestCloneIsIndependent(t *testing.T) {
	net := NewNetwork(3)
	mustArc(t, net, 0, 1, 3)
	mustArc(t, net, 1, 2, 2)
	clone := net.Clone()
	if _, err := net.MaxFlow(0, 2); err != nil {
		t.Fatal(err)
	}
	// The clone's capacities must be untouched by the original's run.
	got, err := clone.MaxFlowPushRelabel(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-2) > 1e-12 {
		t.Errorf("clone flow = %g, want 2 (original run leaked into clone)", got)
	}
}

func TestImproveNeverWorsensQuotient(t *testing.T) {
	// On a dumbbell, seeding Improve with a sloppy set that straddles the
	// bridge must recover (or beat) the natural clique side.
	g := gen.Dumbbell(8, 4)
	// Sloppy seed: one clique plus half the path.
	var seed []int
	for i := 0; i < 10; i++ {
		seed = append(seed, i)
	}
	inSeed := g.Membership(seed)
	phiSeed := g.Conductance(inSeed)
	res, err := Improve(g, seed)
	if err != nil {
		t.Fatalf("Improve: %v", err)
	}
	if res.Conductance > phiSeed+1e-12 {
		t.Errorf("Improve worsened conductance: %g -> %g", phiSeed, res.Conductance)
	}
	if res.Rounds < 1 {
		t.Errorf("expected at least one flow round, got %d", res.Rounds)
	}
}

func TestImproveCanLeaveTheSeedSet(t *testing.T) {
	// MQI can only shrink the seed; Improve may add nodes. Seed with a
	// strict subset of one dumbbell clique: the quotient-optimal set is
	// the whole clique, which requires growing.
	g := gen.Dumbbell(10, 4)
	seed := []int{0, 1, 2, 3, 4, 5} // 6 of the 10 clique-A nodes
	res, err := Improve(g, seed)
	if err != nil {
		t.Fatalf("Improve: %v", err)
	}
	grew := false
	inSeed := g.Membership(seed)
	for _, u := range res.Set {
		if !inSeed[u] {
			grew = true
			break
		}
	}
	if !grew {
		t.Error("Improve never left the seed set; expected it to absorb the rest of the clique")
	}
	phiSeed := g.Conductance(inSeed)
	if res.Conductance >= phiSeed {
		t.Errorf("Improve output φ=%g not better than seed φ=%g", res.Conductance, phiSeed)
	}
}

func TestImproveOnPerfectSetIsIdentity(t *testing.T) {
	// Two disconnected triangles: either triangle has cut 0 and cannot be
	// improved.
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	b.AddEdge(3, 4)
	b.AddEdge(4, 5)
	b.AddEdge(3, 5)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Improve(g, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Conductance != 0 || len(res.Set) != 3 {
		t.Errorf("perfect set should be returned unchanged, got φ=%g |S|=%d", res.Conductance, len(res.Set))
	}
}

func TestImproveInputValidation(t *testing.T) {
	g := gen.Cycle(6)
	if _, err := Improve(g, nil); err == nil {
		t.Error("empty set should error")
	}
	all := make([]int, 6)
	for i := range all {
		all[i] = i
	}
	if _, err := Improve(g, all); err == nil {
		t.Error("whole-graph set should error")
	}
}

func TestQuotientScoreMatchesDefinition(t *testing.T) {
	g := gen.Cycle(6)
	inA := g.Membership([]int{0, 1, 2})
	sigma := 1.0 // vol(A) = vol(rest) on a cycle
	// S = A: Q = cut(A)/vol(A) = 2/6.
	q, ok := QuotientScore(g, inA, inA, sigma)
	if !ok {
		t.Fatal("Q(A) should be defined")
	}
	if math.Abs(q-2.0/6.0) > 1e-12 {
		t.Errorf("Q(A) = %g, want %g", q, 2.0/6.0)
	}
	// S disjoint from A: denominator negative, undefined.
	inS := g.Membership([]int{3, 4})
	if _, ok := QuotientScore(g, inA, inS, sigma); ok {
		t.Error("Q of a set disjoint from A should be undefined")
	}
}

// TestImprovePropertyNeverWorseThanSeed: on random connected graphs with a
// random seed set occupying under half the volume, Improve's conductance
// never exceeds the seed's.
func TestImprovePropertyNeverWorseThanSeed(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(20)
		g, err := gen.ErdosRenyi(n, 0.3, rng)
		if err != nil || !g.IsConnected() {
			return true
		}
		k := 2 + rng.Intn(n/3)
		perm := rng.Perm(n)
		set := perm[:k]
		inS := g.Membership(set)
		if g.VolumeOf(inS) >= g.Volume()/2 {
			return true
		}
		res, err := Improve(g, set)
		if err != nil {
			return false
		}
		return res.Conductance <= g.Conductance(inS)+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func mustArc(t *testing.T, net *Network, u, v int, c float64) {
	t.Helper()
	if err := net.AddArc(u, v, c); err != nil {
		t.Fatalf("AddArc(%d,%d,%g): %v", u, v, c, err)
	}
}
