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
	"repro/internal/gstore"
)

// sweepComparator is the order sweepOrder sorted by before the radix
// sort: value descending, node id ascending. It stays here as the
// oracle the radix order must reproduce.
func sweepComparator(a, b sweepPair) int {
	switch {
	case a.val > b.val:
		return -1
	case a.val < b.val:
		return 1
	}
	return a.node - b.node
}

// TestSweepOrderMatchesComparator: the radix sort and the comparison
// sort agree pair for pair on value sets built to hit the corners of a
// bitwise key — exact ties, one-ulp neighbours, subnormals, huge
// values, +Inf and an underflowed +0 — over node ranges that need one,
// two and three id bytes, with the top id itself present. The values
// are nonnegative, as a sweep's are: every plane is a mass vector.
func TestSweepOrderMatchesComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	base := []float64{
		1, 0.5, 1e-6, 3.7e-5, 1.0 / 3, math.Nextafter(1e-6, 1), math.Nextafter(1e-6, 0),
		math.Nextafter(0.5, 1), math.SmallestNonzeroFloat64, 2 * math.SmallestNonzeroFloat64,
		0x1p-1030, math.Nextafter(0x1p-1022, 0), 0x1p-1022,
		math.MaxFloat64, math.Nextafter(math.MaxFloat64, 0), 1e300, math.Inf(1), 0,
	}
	value := func() float64 {
		switch rng.Intn(3) {
		case 0: // a corner value, so ties are common
			return base[rng.Intn(len(base))]
		case 1: // a one-ulp neighbour of a corner value (0's is above it)
			x := base[rng.Intn(len(base))]
			return math.Abs(math.Nextafter(x, math.Inf(1-2*rng.Intn(2))))
		}
		return math.Ldexp(rng.Float64(), -rng.Intn(60))
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
			pairs := make([]sweepPair, len(nodes))
			for i, u := range nodes {
				pairs[i] = sweepPair{val: value(), node: u}
			}
			want := slices.Clone(pairs)
			slices.SortFunc(want, sweepComparator)
			got, _ := sortSweep(pairs, nil, n)
			for i := range want {
				if got[i].node != want[i].node || math.Float64bits(got[i].val) != math.Float64bits(want[i].val) {
					t.Fatalf("n=%d size=%d: position %d is (%v, %d), comparator order has (%v, %d)",
						n, len(want), i, got[i].val, got[i].node, want[i].val, want[i].node)
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
	g := gstore.Wrap(hg)
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
	g := gstore.Wrap(gen.RingOfCliques(12, 10))
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
