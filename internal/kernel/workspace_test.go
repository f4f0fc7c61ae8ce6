package kernel

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// sweepEntry is one node of a sweep order with the value it is
// ordered by.
type sweepEntry struct {
	val  float64
	node int
}

// sweepComparator is the order sweepOrder sorted by before the radix
// sort: value descending, node id ascending. It stays here as the
// oracle the radix order must reproduce. Float comparison makes −0
// equal to +0, as the sweep's key does.
func sweepComparator(a, b sweepEntry) int {
	switch {
	case a.val > b.val:
		return -1
	case a.val < b.val:
		return 1
	}
	return a.node - b.node
}

// TestSweepOrderMatchesComparator: the radix sort of sweepKey and the
// comparison sort agree node for node on value sets built to hit the
// corners of a bitwise key — exact ties, one-ulp neighbours,
// subnormals, huge values, ±Inf, an underflowed +0 and −0, negatives
// of every corner — over node ranges that need one, two and three id
// bytes, with the top id itself present. Planes only hold non-negative
// values; a caller's list (SweepOrderList) may hold any finite value.
func TestSweepOrderMatchesComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	base := []float64{
		1, 0.5, 1e-6, 3.7e-5, 1.0 / 3, math.Nextafter(1e-6, 1), math.Nextafter(1e-6, 0),
		math.Nextafter(0.5, 1), math.SmallestNonzeroFloat64, 2 * math.SmallestNonzeroFloat64,
		0x1p-1030, math.Nextafter(0x1p-1022, 0), 0x1p-1022,
		math.MaxFloat64, math.Nextafter(math.MaxFloat64, 0), 1e300, math.Inf(1), 0,
	}
	for _, signed := range []bool{false, true} {
		value := func() float64 {
			var x float64
			switch rng.Intn(3) {
			case 0: // a corner value, so ties are common
				x = base[rng.Intn(len(base))]
			case 1: // a one-ulp neighbour of a corner value (0's is above it)
				x = math.Abs(math.Nextafter(base[rng.Intn(len(base))], math.Inf(1-2*rng.Intn(2))))
			default:
				x = math.Ldexp(rng.Float64(), -rng.Intn(60))
			}
			if signed && rng.Intn(2) == 0 {
				x = -x // a zero becomes −0
			}
			return x
		}
		for _, n := range []int{255, 256, 257, 65537} {
			for _, size := range []int{0, 1, 2, 17, n / 3, n} {
				nodes := rng.Perm(n)
				if size > 0 { // the widest id is always among the nodes
					top := slices.Index(nodes, n-1)
					j := rng.Intn(size)
					nodes[top], nodes[j] = nodes[j], nodes[top]
				}
				nodes = nodes[:size]
				want := make([]sweepEntry, len(nodes))
				pairs := make([]sweepPair, len(nodes))
				for i, u := range nodes {
					want[i] = sweepEntry{val: value(), node: u}
					pairs[i] = sweepPair{key: sweepKey(want[i].val), node: u}
				}
				slices.SortFunc(want, sweepComparator)
				got, _ := sortSweep(pairs, nil, n)
				for i := range want {
					if got[i].node != want[i].node {
						t.Fatalf("signed=%v n=%d size=%d: position %d is node %d, comparator order has (%v, %d)",
							signed, n, len(want), i, got[i].node, want[i].val, want[i].node)
					}
				}
			}
		}
	}
}

// TestWorkspaceReuseAcrossMethods: one workspace runs a push stopped
// mid-queue (leaving queue marks behind), then push → nibble → push →
// heat → push. Every run's planes must equal a fresh workspace's, bit
// for bit and in touched order: a queue mark carried across the walk's
// R/S swap, or state left in the lazily allocated scratch plane, would
// show here.
func TestWorkspaceReuseAcrossMethods(t *testing.T) {
	hg, err := gen.ForestFire(gen.ForestFireConfig{N: 1500, FwdProb: 0.35, Ambs: 1}, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	g := hg
	seeds := []int{11}
	push := PushACL{Alpha: 0.05, Eps: 1e-7}
	methods := []Diffuser{
		push,
		NibbleWalk{Eps: 1e-5, Steps: 12},
		push,
		HeatKernel{T: 3, Eps: 1e-5},
		push,
	}
	planes := func(ws *Workspace) string {
		var sb strings.Builder
		for _, pl := range []*plane{&ws.p, &ws.r} {
			for _, u := range pl.list {
				fmt.Fprintf(&sb, " %d:%016x", u, math.Float64bits(pl.c[u].val))
			}
			sb.WriteByte('\n')
		}
		return sb.String()
	}
	ws := NewWorkspace(g.N())
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := push.DiffuseContext(cancelled, g, ws, seeds); err != context.Canceled {
		t.Fatalf("cancelled push = %v, want context.Canceled", err)
	}
	if ws.q.head == len(ws.q.buf) {
		t.Fatalf("the cancelled push drained its queue; it must stop mid-queue to leave marks")
	}
	for i, m := range methods {
		st, err := m.DiffuseContext(context.Background(), g, ws, seeds)
		if err != nil {
			t.Fatalf("run %d (%T): %v", i, m, err)
		}
		fresh := NewWorkspace(g.N())
		wantSt, err := m.DiffuseContext(context.Background(), g, fresh, seeds)
		if err != nil {
			t.Fatal(err)
		}
		if st != wantSt {
			t.Fatalf("run %d (%T): stats %+v on the reused workspace, %+v on a fresh one", i, m, st, wantSt)
		}
		if got, want := planes(ws), planes(fresh); got != want {
			t.Fatalf("run %d (%T): planes differ from a fresh workspace's\ngot  %.300s\nwant %.300s", i, m, got, want)
		}
	}
	if ws.s.c == nil {
		t.Fatalf("the walks never allocated the scratch plane")
	}
}

// TestSweepScanEmptiesSet: the prefix set is empty after every scan,
// whether it ran to the end or a visitor stopped it early the way the
// NCP's volume cap does — and a scan after an early stop sees the same
// cuts as the first.
func TestSweepScanEmptiesSet(t *testing.T) {
	g := gen.RingOfCliques(12, 10)
	ws := NewWorkspace(g.N())
	if _, err := (PushACL{Alpha: 0.1, Eps: 1e-5}).Diffuse(g, ws, []int{3}); err != nil {
		t.Fatal(err)
	}
	k := ws.SweepOrderP(g)
	if k < 40 {
		t.Fatalf("support %d is too small to stop a scan early", k)
	}
	empty := func(when string) {
		t.Helper()
		for i, w := range ws.inS {
			if w != 0 {
				t.Fatalf("%s: set word %d = %#x, want empty", when, i, w)
			}
		}
	}
	scan := func(stopVol float64) (lines []string, vols []float64) {
		ws.SweepScan(g, k, func(size int, cut, vol float64) bool {
			lines = append(lines, fmt.Sprintf("%d %016x %016x", size, math.Float64bits(cut), math.Float64bits(vol)))
			vols = append(vols, vol)
			return vol < stopVol
		})
		return lines, vols
	}
	full, vols := scan(math.Inf(1))
	empty("after a full scan")
	capped, _ := scan(vols[len(vols)/3])
	if len(capped) != len(vols)/3+1 {
		t.Fatalf("the capped scan visited %d prefixes, want %d", len(capped), len(vols)/3+1)
	}
	empty("after an early stop")
	if again, _ := scan(math.Inf(1)); !slices.Equal(again, full) {
		t.Fatal("a scan after an early stop sees different cuts than the first")
	}
	if !slices.Equal(capped, full[:len(capped)]) {
		t.Fatal("the capped scan's prefixes differ from the full scan's")
	}
}

// TestSweepOrderList: a caller's list is ordered by the plane rule
// with every entry kept — zero and negative values too, −0 equal to
// +0 — except zero-degree nodes; the first out-of-range or repeated
// node is reported by index and loads nothing; and the duplicate check
// leaves the scan's set empty either way, so the cut that follows is
// the plane path's own.
func TestSweepOrderList(t *testing.T) {
	b := graph.NewBuilder(14) // a 12-cycle, then two isolated nodes
	for u := 0; u < 12; u++ {
		b.AddEdge(u, (u+1)%12)
	}
	hg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := hg
	ws := NewWorkspace(g.N())
	empty := func(label string) {
		t.Helper()
		for i, w := range ws.inS {
			if w != 0 {
				t.Fatalf("%s: set word %d = %#x, want empty", label, i, w)
			}
		}
	}
	type entry struct {
		node int
		val  float64
	}
	load := func(list []entry) (k, bad int) {
		return ws.SweepOrderList(g, len(list), func(i int) (int, float64) { return list[i].node, list[i].val })
	}
	for _, c := range []struct {
		list  []entry
		order []int
		bad   int
	}{
		{[]entry{{6, -1}, {2, -0.2}, {12, 5}, {3, 0}, {1, 0.5}, {4, math.Copysign(0, -1)}, {0, 1}}, []int{0, 1, 3, 4, 2, 6}, -1},
		{[]entry{{5, 0.5}, {0, 1}, {4, 0.5}}, []int{0, 4, 5}, -1},
		{[]entry{{12, 1}, {13, 0.5}}, nil, -1},
		{[]entry{{1, 1}, {1, 0.5}, {14, 1}}, nil, 1},
		{[]entry{{14, 1}, {1, 1}, {1, 0.5}}, nil, 0},
		{[]entry{{2, 1}, {12, 1}, {-1, 1}}, nil, 2},
	} {
		k, bad := load(c.list)
		if got := ws.SweepNodes(nil, k); bad != c.bad || !slices.Equal(got, c.order) {
			t.Fatalf("%v: order %v bad %d, want %v bad %d", c.list, got, bad, c.order, c.bad)
		}
		empty(fmt.Sprint(c.list))
	}
	// On a plane's values the list and the plane give one order and one
	// cut.
	if _, err := (PushACL{Alpha: 0.2, Eps: 1e-4}).Diffuse(g, ws, []int{3}); err != nil {
		t.Fatal(err)
	}
	var list []entry
	ws.ForEachP(func(u int, x float64) { list = append(list, entry{u, x}) })
	k := ws.SweepOrderP(g)
	want := ws.SweepNodes(nil, k)
	wantPrefix, wantPhi := ws.SweepBest(g)
	if k, bad := load(list); bad != -1 || !slices.Equal(ws.SweepNodes(nil, k), want) {
		t.Fatalf("list order %v (bad %d), plane order %v", ws.SweepNodes(nil, k), bad, want)
	}
	if prefix, phi := ws.SweepBest(g); prefix != wantPrefix || phi != wantPhi || prefix == 0 {
		t.Fatalf("list cut (%d, %v), plane cut (%d, %v)", prefix, phi, wantPrefix, wantPhi)
	}
	empty("after the cut")
}
