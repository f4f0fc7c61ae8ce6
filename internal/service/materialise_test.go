package service

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/gen"
	"repro/internal/gstore"
	"repro/internal/kernel"
	"repro/pkg/api"
)

// Result materialisation — turning a finished push into the wire's
// `top` and `sweep` — must select exactly what sorting everything would
// have selected, and must cost the support, never the graph or the
// request's topk.

// fullSortTop is the oracle: sort every entry, cut at k.
func fullSortTop(entries []api.NodeMass, k int) []api.NodeMass {
	out := slices.Clone(entries)
	slices.SortFunc(out, compareMass)
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

func sameTop(a, b []api.NodeMass) bool {
	return slices.EqualFunc(a, b, func(x, y api.NodeMass) bool {
		return x.Node == y.Node && math.Float64bits(x.Mass) == math.Float64bits(y.Mass)
	})
}

// TestTopSelectorMatchesFullSort: generated supports with heavily
// duplicated masses, offered in random order, for every k around the
// support size and beyond it — the selection equals the full-sort
// prefix, through both the streaming and the dense entry points.
func TestTopSelectorMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 200; trial++ {
		support := 1 + rng.Intn(300)
		n := support + rng.Intn(3*support)
		levels := 1 + rng.Intn(8) // few distinct masses ⇒ many ties
		entries := make([]api.NodeMass, support)
		dense := make([]float64, n)
		for i, u := range rng.Perm(n)[:support] {
			entries[i] = api.NodeMass{Node: u, Mass: float64(1+rng.Intn(levels)) / 8}
			dense[u] = entries[i].Mass
		}
		for _, k := range []int{1, support - 1, support, support + 1, 1 << 40, 0, -3} {
			want := fullSortTop(entries, k)
			sel := newTopSelector(support, k, nil)
			for _, e := range entries {
				sel.offer(e.Node, e.Mass)
			}
			if got := sel.sorted(); !sameTop(got, want) {
				t.Fatalf("trial %d support=%d k=%d: selector\n%v\nfull sort\n%v", trial, support, k, got, want)
			}
			if got := topMassesDense(dense, support, k); !sameTop(got, want) {
				t.Fatalf("trial %d support=%d k=%d: dense selector\n%v\nfull sort\n%v", trial, support, k, got, want)
			}
		}
	}
}

// TestTopMassesWorkspaceTiesAndHugeK: on a real plane full of exact
// ties (a star's leaves) the workspace selector equals the full sort,
// and an absurd wire topk sizes nothing — one allocation, of the
// support's size.
func TestTopMassesWorkspaceTiesAndHugeK(t *testing.T) {
	g := gstore.Wrap(gen.Star(500))
	ws := kernel.NewWorkspace(g.N())
	st, err := kernel.PushACL{Alpha: 0.15, Eps: 1e-7}.Diffuse(g, ws, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	var entries []api.NodeMass
	ws.ForEachP(func(u int, x float64) { entries = append(entries, api.NodeMass{Node: u, Mass: x}) })
	if len(entries) != st.MaxSupport || len(entries) < 100 || entries[1].Mass != entries[2].Mass {
		t.Fatalf("fixture: %d entries, support %d, leaves %v %v", len(entries), st.MaxSupport, entries[1], entries[2])
	}
	for _, k := range []int{1, 7, len(entries) - 1, len(entries), 1 << 40, 0} {
		if got, want := topMassesWorkspace(ws, st.MaxSupport, k, nil), fullSortTop(entries, k); !sameTop(got, want) {
			t.Fatalf("k=%d: workspace selector diverges from the full sort:\n%v\n%v", k, got, want)
		}
	}
	var sink []api.NodeMass
	allocs := testing.AllocsPerRun(20, func() { sink = topMassesWorkspace(ws, st.MaxSupport, 1<<40, nil) })
	if allocs != 1 || cap(sink) != st.MaxSupport {
		t.Fatalf("topk=1<<40 on a support of %d: %v allocations, capacity %d; want 1 allocation of the support's size",
			st.MaxSupport, allocs, cap(sink))
	}
}

// materialiseCost runs push + top-k + sweep for one seed on a warm
// workspace (held directly: a sync.Pool sheds entries at random under
// the race detector) and reports the allocations and bytes of one run,
// plus the reply's support so callers can check they compared like
// with like.
func materialiseCost(t *testing.T, g gstore.Graph) (allocs float64, bytes uint64, support int) {
	t.Helper()
	ws := kernel.NewWorkspace(g.N())
	run := func() {
		st, err := kernel.PushACL{Alpha: 0.15, Eps: 1e-5}.Diffuse(g, ws, []int{0})
		if err != nil {
			t.Fatal(err)
		}
		res, err := pprResult(g, ws, st, 100, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		support = res.Support
	}
	run() // warm: the workspace and its sweep scratch reach steady size
	allocs = testing.AllocsPerRun(50, run)
	const reps = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return allocs, (after.TotalAlloc - before.TotalAlloc) / reps, support
}

// TestMaterialisationIsLocal is the locality lock: the same seed on two
// rings of 8-cliques that differ only in how long the ring is (4k vs
// 64k nodes) sees the same neighbourhood, so push + top-k + sweep must
// allocate exactly the same — count and bytes. Anything sized by n
// (the old sweep's make([]bool, g.N())) breaks the equality by 60 kB.
func TestMaterialisationIsLocal(t *testing.T) {
	small := gstore.Wrap(gen.RingOfCliques(512, 8))
	large := gstore.Wrap(gen.RingOfCliques(8192, 8))
	aS, bS, supS := materialiseCost(t, small)
	aL, bL, supL := materialiseCost(t, large)
	if supS != supL || supS < 50 || supS > small.N()/2 {
		t.Fatalf("fixture: supports %d and %d — the two runs are not the same local computation", supS, supL)
	}
	if aS != aL || bS != bL {
		t.Fatalf("one ppr reply costs %v allocs / %d B on %d nodes but %v allocs / %d B on %d nodes",
			aS, bS, small.N(), aL, bL, large.N())
	}
	// And what it does allocate is the reply: the top list, the sweep
	// set and two small structs — nowhere near a byte per node.
	if limit := uint64(supS)*uint64(unsafe.Sizeof(api.NodeMass{})+8) + 1024; bS > limit {
		t.Fatalf("one ppr reply allocates %d B for a support of %d (limit %d)", bS, supS, limit)
	}
}

// BenchmarkTopKWorkspace measures top-100 selection over the finished
// push of a G16-scale Kronecker graph at eps 1e-6 — a support in the
// thousands, of which the reply keeps a hundred.
func BenchmarkTopKWorkspace(b *testing.B) {
	hg, err := gen.Kronecker(gen.KroneckerConfig{Levels: 16}, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	g := gstore.Wrap(hg)
	seed := 0
	for hg.Degree(seed) == 0 {
		seed++
	}
	ws := kernel.NewWorkspace(g.N())
	st, err := kernel.PushACL{Alpha: 0.15, Eps: 1e-6}.Diffuse(g, ws, []int{seed})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if top := topMassesWorkspace(ws, st.MaxSupport, 100, nil); len(top) != 100 {
			b.Fatalf("top has %d entries", len(top))
		}
	}
	b.Logf("support %d on n=%d m=%d", st.MaxSupport, g.N(), g.M())
}
