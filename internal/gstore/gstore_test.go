package gstore_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/gstore"
	"repro/internal/persist"
)

// weightedGraph builds a graph whose edge weights all come from vals,
// cycling deterministically, so tests can force a specific WeightForm.
func weightedGraph(t testing.TB, n int, vals []float64) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	k := 0
	for i := 0; i < n-1; i++ {
		b.AddWeightedEdge(i, i+1, vals[k%len(vals)])
		k++
		if i+7 < n {
			b.AddWeightedEdge(i, i+7, vals[k%len(vals)])
			k++
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// testGraphs is the backend-conformance graph grid: unit-weight shapes
// with cliques, bridges, isolated nodes, plus weighted graphs that land
// in each weight form (float32-lossless and float64-requiring).
func testGraphs(t testing.TB) map[string]*graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	er, err := gen.ErdosRenyi(150, 0.04, rng)
	if err != nil {
		t.Fatal(err)
	}
	b := graph.NewBuilder(24)
	for i := 0; i < 15; i++ {
		b.AddEdge(i, i+1)
	}
	withIsolated, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{
		"ring-of-cliques": gen.RingOfCliques(5, 6),
		"dumbbell":        gen.Dumbbell(8, 3),
		"grid":            gen.Grid(9, 11),
		"erdos-renyi":     er,
		"with-isolated":   withIsolated,
		// 0.5/2.25/8 are dyadic: float32 holds them exactly.
		"weighted-f32": weightedGraph(t, 80, []float64{0.5, 2.25, 8, 1}),
		// 0.1 and 0.3 are not float32-representable.
		"weighted-f64": weightedGraph(t, 80, []float64{0.1, 0.3, 1.75}),
	}
}

// openBackends serves g from both backends. The mmap instance is
// opened off a GSNAP v2 snapshot written to a temp dir and unmapped in
// cleanup.
func openBackends(t testing.TB, g *graph.Graph) map[gstore.Kind]gstore.Graph {
	t.Helper()
	c, err := gstore.NewCompact(g)
	if err != nil {
		t.Fatalf("NewCompact: %v", err)
	}
	path := filepath.Join(t.TempDir(), "g"+persist.SnapshotExt)
	if err := persist.WriteSnapshotFile(path, c); err != nil {
		t.Fatalf("WriteSnapshotFile: %v", err)
	}
	m, err := persist.OpenMapped(path)
	if errors.Is(err, persist.ErrNotMappable) {
		t.Skipf("platform cannot mmap snapshots: %v", err)
	}
	if err != nil {
		t.Fatalf("OpenMapped: %v", err)
	}
	t.Cleanup(func() { m.Close() })
	return map[gstore.Kind]gstore.Graph{
		gstore.KindCompact: c,
		gstore.KindMmap:    m,
	}
}

func TestParseKind(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want gstore.Kind
		ok   bool
	}{
		{"", gstore.KindCompact, true},
		{"compact", gstore.KindCompact, true},
		{"mmap", gstore.KindMmap, true},
		// The builder's heap graph is never served.
		{"heap", "", false},
		{"Compact", "", false},
		{"disk", "", false},
	} {
		got, err := gstore.ParseKind(tc.in)
		if tc.ok && (err != nil || got != tc.want) {
			t.Errorf("ParseKind(%q) = %q, %v; want %q", tc.in, got, err, tc.want)
		}
		if !tc.ok && (err == nil || !strings.Contains(err.Error(), "want compact or mmap")) {
			t.Errorf("ParseKind(%q) = %v, want an error naming compact and mmap", tc.in, err)
		}
	}
}

func TestDetectWeightForm(t *testing.T) {
	for _, tc := range []struct {
		name string
		w    []float64
		want gstore.WeightForm
	}{
		{"empty", nil, gstore.WeightsUnit},
		{"all-unit", []float64{1, 1, 1}, gstore.WeightsUnit},
		{"dyadic", []float64{1, 0.5, 2.25}, gstore.WeightsF32},
		{"needs-f64", []float64{1, 0.1}, gstore.WeightsF64},
		{"tiny-denormal-f32", []float64{math.SmallestNonzeroFloat64}, gstore.WeightsF64},
		{"large-but-exact", []float64{1 << 20}, gstore.WeightsF32},
	} {
		if got := gstore.DetectWeightForm(tc.w); got != tc.want {
			t.Errorf("%s: DetectWeightForm = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestCompactWeightStorage(t *testing.T) {
	graphs := testGraphs(t)
	check := func(name string, wantW32, wantW64 bool) {
		c, err := gstore.NewCompact(graphs[name])
		if err != nil {
			t.Fatal(err)
		}
		if (c.RawWeights32() != nil) != wantW32 || (c.RawWeights64() != nil) != wantW64 {
			t.Errorf("%s: w32=%v w64=%v, want w32=%v w64=%v", name,
				c.RawWeights32() != nil, c.RawWeights64() != nil, wantW32, wantW64)
		}
	}
	check("grid", false, false)
	check("weighted-f32", true, false)
	check("weighted-f64", false, true)
}

// TestBackendConformance checks that every backend reports bit-identical
// scalars and identical adjacency (ids and weight bits) to the builder
// graph it was derived from.
func TestBackendConformance(t *testing.T) {
	for name, hg := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			backends := openBackends(t, hg)
			for kind, g := range backends {
				if g.Backend() != kind {
					t.Errorf("%s: Backend() = %q, want %q", kind, g.Backend(), kind)
				}
				if g.N() != hg.N() || g.M() != hg.M() {
					t.Fatalf("%s: N,M = %d,%d, want %d,%d", kind, g.N(), g.M(), hg.N(), hg.M())
				}
				if math.Float64bits(g.Volume()) != math.Float64bits(hg.Volume()) {
					t.Errorf("%s: Volume %v != heap %v", kind, g.Volume(), hg.Volume())
				}
				for u := 0; u < hg.N(); u++ {
					if math.Float64bits(g.Degree(u)) != math.Float64bits(hg.Degree(u)) {
						t.Fatalf("%s: Degree(%d) %v != heap %v", kind, u, g.Degree(u), hg.Degree(u))
					}
					nbrs, wts := hg.Neighbors(u)
					it := g.Neighbors(u)
					if it.Len() != len(nbrs) {
						t.Fatalf("%s: iter Len(%d) = %d, want %d", kind, u, it.Len(), len(nbrs))
					}
					for k := 0; ; k++ {
						v, w, ok := it.Next()
						if !ok {
							if k != len(nbrs) {
								t.Fatalf("%s: row %d exhausted after %d of %d", kind, u, k, len(nbrs))
							}
							break
						}
						if v != nbrs[k] || math.Float64bits(w) != math.Float64bits(wts[k]) {
							t.Fatalf("%s: row %d entry %d = (%d,%v), want (%d,%v)", kind, u, k, v, w, nbrs[k], wts[k])
						}
						if it.Len() != len(nbrs)-k-1 {
							t.Fatalf("%s: row %d Len after %d = %d", kind, u, k+1, it.Len())
						}
					}
				}
			}
		})
	}
}

func TestNeighborIterZeroValue(t *testing.T) {
	var it gstore.NeighborIter
	if it.Len() != 0 {
		t.Errorf("zero iter Len = %d", it.Len())
	}
	if _, _, ok := it.Next(); ok {
		t.Error("zero iter Next returned ok")
	}
}

var allocSink float64

// TestIteratorZeroAlloc asserts that a full interface-driven traversal
// of every backend allocates nothing: the cursor is by-value and Next
// is a concrete call.
func TestIteratorZeroAlloc(t *testing.T) {
	g := testGraphs(t)["weighted-f32"]
	for kind, bg := range openBackends(t, g) {
		bg := bg
		allocs := testing.AllocsPerRun(50, func() {
			var sum float64
			for u := 0; u < bg.N(); u++ {
				it := bg.Neighbors(u)
				for v, w, ok := it.Next(); ok; v, w, ok = it.Next() {
					sum += w * float64(v&1)
				}
			}
			allocSink = sum
		})
		if allocs != 0 {
			t.Errorf("%s: traversal allocated %.1f objects per run, want 0", kind, allocs)
		}
	}
}

// compactParts copies the raw arrays of a Compact so a test can mutate
// one field and feed the result to NewCompactFromParts.
type compactParts struct {
	rowPtr []int64
	adj    []uint32
	w32    []float32
	w64    []float64
	deg    []float64
}

func partsOf(t *testing.T, g *graph.Graph) compactParts {
	t.Helper()
	c, err := gstore.NewCompact(g)
	if err != nil {
		t.Fatal(err)
	}
	p := compactParts{
		rowPtr: append([]int64(nil), c.RawRowPtr()...),
		adj:    append([]uint32(nil), c.RawAdj()...),
		deg:    append([]float64(nil), c.RawDegrees()...),
	}
	if w := c.RawWeights32(); w != nil {
		p.w32 = append([]float32(nil), w...)
	}
	if w := c.RawWeights64(); w != nil {
		p.w64 = append([]float64(nil), w...)
	}
	return p
}

func (p compactParts) build(kind gstore.Kind, closer func() error) (*gstore.Compact, error) {
	return gstore.NewCompactFromParts(kind, p.rowPtr, p.adj, p.w32, p.w64, p.deg, closer)
}

func TestNewCompactFromPartsValid(t *testing.T) {
	for name, g := range testGraphs(t) {
		p := partsOf(t, g)
		c, err := p.build(gstore.KindCompact, nil)
		if err != nil {
			t.Fatalf("%s: valid parts rejected: %v", name, err)
		}
		if c.N() != g.N() || c.M() != g.M() {
			t.Errorf("%s: N,M = %d,%d, want %d,%d", name, c.N(), c.M(), g.N(), g.M())
		}
		if math.Float64bits(c.Volume()) != math.Float64bits(g.Volume()) {
			t.Errorf("%s: Volume %v, want %v", name, c.Volume(), g.Volume())
		}
		// A nil deg is the row-order accumulation: the degrees stored
		// alongside the same arrays, bit for bit.
		p.deg = nil
		derived, err := p.build(gstore.KindCompact, nil)
		if err != nil {
			t.Fatalf("%s: parts without degrees rejected: %v", name, err)
		}
		sameCompact(t, name+" (derived degrees)", derived, c)
	}
}

// TestNewCompactFromPartsRejects feeds corrupted CSR parts — the shapes
// an adversarial or bit-rotted snapshot could present — and requires
// each to be rejected.
func TestNewCompactFromPartsRejects(t *testing.T) {
	base := testGraphs(t)["weighted-f64"]
	unit := gen.Dumbbell(5, 2)
	cases := []struct {
		name  string
		parts func(t *testing.T) (gstore.Kind, compactParts)
	}{
		{"heap-kind", func(t *testing.T) (gstore.Kind, compactParts) {
			return gstore.KindHeap, partsOf(t, unit)
		}},
		{"empty-rowptr", func(t *testing.T) (gstore.Kind, compactParts) {
			p := partsOf(t, unit)
			p.rowPtr = nil
			return gstore.KindCompact, p
		}},
		{"rowptr-starts-nonzero", func(t *testing.T) (gstore.Kind, compactParts) {
			p := partsOf(t, unit)
			p.rowPtr[0] = 1
			return gstore.KindCompact, p
		}},
		{"rowptr-decreases", func(t *testing.T) (gstore.Kind, compactParts) {
			p := partsOf(t, unit)
			p.rowPtr[1] = p.rowPtr[2] + 1
			return gstore.KindCompact, p
		}},
		{"rowptr-total-mismatch", func(t *testing.T) (gstore.Kind, compactParts) {
			p := partsOf(t, unit)
			p.rowPtr[len(p.rowPtr)-1]++
			return gstore.KindCompact, p
		}},
		{"odd-adjacency", func(t *testing.T) (gstore.Kind, compactParts) {
			p := partsOf(t, unit)
			p.adj = p.adj[:len(p.adj)-1]
			p.rowPtr[len(p.rowPtr)-1]--
			return gstore.KindCompact, p
		}},
		{"both-weight-arrays", func(t *testing.T) (gstore.Kind, compactParts) {
			p := partsOf(t, base)
			p.w32 = make([]float32, len(p.adj))
			return gstore.KindCompact, p
		}},
		{"w64-length-mismatch", func(t *testing.T) (gstore.Kind, compactParts) {
			p := partsOf(t, base)
			p.w64 = p.w64[:len(p.w64)-1]
			return gstore.KindCompact, p
		}},
		{"deg-length-mismatch", func(t *testing.T) (gstore.Kind, compactParts) {
			p := partsOf(t, unit)
			p.deg = p.deg[:len(p.deg)-1]
			return gstore.KindCompact, p
		}},
		{"neighbor-out-of-range", func(t *testing.T) (gstore.Kind, compactParts) {
			p := partsOf(t, unit)
			p.adj[0] = uint32(len(p.rowPtr) - 1)
			return gstore.KindCompact, p
		}},
		{"self-loop", func(t *testing.T) (gstore.Kind, compactParts) {
			p := partsOf(t, unit)
			p.adj[0] = 0 // node 0's first neighbor becomes itself
			return gstore.KindCompact, p
		}},
		{"duplicate-neighbor", func(t *testing.T) (gstore.Kind, compactParts) {
			p := partsOf(t, unit)
			p.adj[1] = p.adj[0]
			return gstore.KindCompact, p
		}},
		{"row-not-ascending", func(t *testing.T) (gstore.Kind, compactParts) {
			p := partsOf(t, unit)
			// Node 0 of a dumbbell clique has ≥2 neighbors; reverse them.
			p.adj[0], p.adj[1] = p.adj[1], p.adj[0]
			return gstore.KindCompact, p
		}},
		{"negative-weight", func(t *testing.T) (gstore.Kind, compactParts) {
			p := partsOf(t, base)
			p.w64[0] = -p.w64[0]
			return gstore.KindCompact, p
		}},
		{"zero-weight", func(t *testing.T) (gstore.Kind, compactParts) {
			p := partsOf(t, base)
			p.w64[0] = 0
			return gstore.KindCompact, p
		}},
		{"nan-weight", func(t *testing.T) (gstore.Kind, compactParts) {
			p := partsOf(t, base)
			p.w64[0] = math.NaN()
			return gstore.KindCompact, p
		}},
		{"asymmetric-weight", func(t *testing.T) (gstore.Kind, compactParts) {
			p := partsOf(t, base)
			// Double one direction of edge (0, adj[0]); its mirror keeps
			// the old weight, so symmetry verification must fail.
			p.w64[0] *= 2
			return gstore.KindCompact, p
		}},
		{"missing-mirror", func(t *testing.T) (gstore.Kind, compactParts) {
			// Rows 0 and 2 both list node 1, whose row is empty: the
			// entry count is even, but neither edge has its mirror.
			return gstore.KindCompact, compactParts{
				rowPtr: []int64{0, 1, 1, 2}, adj: []uint32{1, 1}, deg: []float64{1, 0, 1},
			}
		}},
		{"smuggled-degree", func(t *testing.T) (gstore.Kind, compactParts) {
			p := partsOf(t, unit)
			// One ulp off: close enough to pass any tolerance check,
			// caught only by the bit-identity requirement.
			p.deg[0] = math.Nextafter(p.deg[0], math.Inf(1))
			return gstore.KindCompact, p
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			kind, p := tc.parts(t)
			if c, err := p.build(kind, nil); err == nil {
				t.Fatalf("corrupt parts accepted: %+v", c)
			}
		})
	}
}

func TestCompactCloseIdempotent(t *testing.T) {
	p := partsOf(t, gen.Path(8))
	closed := 0
	c, err := p.build(gstore.KindMmap, func() error {
		closed++
		return errors.New("boom")
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Backend() != gstore.KindMmap {
		t.Fatalf("Backend = %q", c.Backend())
	}
	if err := c.Close(); err == nil || closed != 1 {
		t.Fatalf("first Close: err=%v closed=%d, want closer error once", err, closed)
	}
	if err := c.Close(); err != nil || closed != 1 {
		t.Fatalf("second Close: err=%v closed=%d, want silent no-op", err, closed)
	}
}

// TestCompactFinalizerCloses drops the last reference to a
// closer-bearing Compact without calling Close and asserts the GC
// finalizer runs the closer. This is the backstop GraphStore.Delete
// relies on: delete drops its reference instead of unmapping eagerly
// (which would segfault queries already walking the adjacency), and
// collection unmaps once the last in-flight query lets go.
func TestCompactFinalizerCloses(t *testing.T) {
	closed := make(chan struct{})
	func() {
		p := partsOf(t, gen.Path(16))
		c, err := p.build(gstore.KindMmap, func() error {
			close(closed)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if c.N() != 16 {
			t.Fatalf("N = %d", c.N())
		}
	}()
	deadline := time.After(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-closed:
			return
		case <-deadline:
			t.Fatal("finalizer never closed the abandoned mapped graph")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestMaterializeBitIdentity round-trips each backend, and Wrap's
// compact conversion, through Materialize and requires the heap result
// to be a copy matching the original graph bit-for-bit: same CSR, same
// weight bits, same degree bits, same volume bits.
func TestMaterializeBitIdentity(t *testing.T) {
	for name, hg := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			wrapped := gstore.Wrap(hg)
			if wrapped.Backend() != gstore.KindCompact {
				t.Fatalf("Wrap serves %q, want compact", wrapped.Backend())
			}
			inputs := map[string]gstore.Graph{"wrap": wrapped}
			for kind, bg := range openBackends(t, hg) {
				inputs[string(kind)] = bg
			}
			for label, bg := range inputs {
				got, err := gstore.Materialize(bg)
				if err != nil {
					t.Fatalf("%s: Materialize: %v", label, err)
				}
				if got == hg {
					t.Fatalf("%s: Materialize returned the original graph, not a copy", label)
				}
				assertSameHeapGraph(t, label, got, hg)
			}
		})
	}
}

// TestBuildMatchesNewCompact: on random multigraphs of every weight
// form, with parallel edges in both orientations and self-loops, some
// past the builder's first chunks, gstore.Build gives what converting
// the builder's heap graph gives, array for array and bit for bit, m
// and the volume included, its arrays pass NewCompactFromParts'
// validation, and the two write the same snapshot bytes.
func TestBuildMatchesNewCompact(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	weights := []struct {
		form   gstore.WeightForm
		weight func() float64
	}{
		{gstore.WeightsUnit, func() float64 { return 1 }},
		// Quarters: every sum of a few stays float32-exact.
		{gstore.WeightsF32, func() float64 { return float64(1+rng.Intn(12)) / 4 }},
		{gstore.WeightsF64, func() float64 { return 0.1 * float64(1+rng.Intn(30)) }},
	}
	for _, wf := range weights {
		seen := 0
		for trial := range 100 {
			n := 1 + rng.Intn(400)
			b := graph.NewBuilder(n)
			for e := rng.Intn(6 * n); e > 0; e-- {
				u, v := rng.Intn(n), rng.Intn(n)
				b.AddWeightedEdge(u, v, wf.weight())
				if trial%2 == 1 && rng.Intn(3) == 0 {
					b.AddWeightedEdge(v, u, wf.weight())
				}
			}
			got, err := gstore.Build(b)
			if err != nil {
				t.Fatal(err)
			}
			hg, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			want := gstore.Wrap(hg)
			label := fmt.Sprintf("form %d trial %d (n=%d m=%d)", wf.form, trial, n, want.M())
			sameCompact(t, label, got, want)
			// Build's CSR passes the validation every snapshot load runs:
			// rows strictly ascending, exact symmetry, row-order degrees.
			if _, err := gstore.NewCompactFromParts(gstore.KindCompact, got.RawRowPtr(), got.RawAdj(),
				got.RawWeights32(), got.RawWeights64(), got.RawDegrees(), nil); err != nil {
				t.Fatalf("%s: Build's CSR fails validation: %v", label, err)
			}
			var gotSnap, wantSnap bytes.Buffer
			if err := errors.Join(persist.WriteSnapshot(&gotSnap, got), persist.WriteSnapshot(&wantSnap, want)); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotSnap.Bytes(), wantSnap.Bytes()) {
				t.Fatalf("%s: snapshot bytes differ", label)
			}
			if _, _, w := hg.CSR(); gstore.DetectWeightForm(w) == wf.form {
				seen++
			}
		}
		if seen == 0 {
			t.Errorf("no draw landed in weight form %d", wf.form)
		}
	}
}

// sameCompact fails unless got and want agree to the bit: backend,
// sizes, volume and every raw array.
func sameCompact(t *testing.T, label string, got, want *gstore.Compact) {
	t.Helper()
	f64bits := func(fs []float64) []uint64 {
		out := make([]uint64, len(fs))
		for i, f := range fs {
			out[i] = math.Float64bits(f)
		}
		return out
	}
	f32bits := func(fs []float32) []uint32 {
		out := make([]uint32, len(fs))
		for i, f := range fs {
			out[i] = math.Float32bits(f)
		}
		return out
	}
	switch {
	case got.Backend() != want.Backend() || got.N() != want.N() || got.M() != want.M():
		t.Fatalf("%s: backend, n, m = %s, %d, %d, want %s, %d, %d", label, got.Backend(), got.N(), got.M(), want.Backend(), want.N(), want.M())
	case math.Float64bits(got.Volume()) != math.Float64bits(want.Volume()):
		t.Fatalf("%s: volume %v, want %v", label, got.Volume(), want.Volume())
	case !slices.Equal(got.RawRowPtr(), want.RawRowPtr()) || !slices.Equal(got.RawAdj(), want.RawAdj()):
		t.Fatalf("%s: row pointers or adjacency differ", label)
	case (got.RawWeights32() == nil) != (want.RawWeights32() == nil) || (got.RawWeights64() == nil) != (want.RawWeights64() == nil) ||
		!slices.Equal(f32bits(got.RawWeights32()), f32bits(want.RawWeights32())) ||
		!slices.Equal(f64bits(got.RawWeights64()), f64bits(want.RawWeights64())):
		t.Fatalf("%s: weights differ", label)
	case !slices.Equal(f64bits(got.RawDegrees()), f64bits(want.RawDegrees())):
		t.Fatalf("%s: degrees differ", label)
	}
}

func assertSameHeapGraph(t *testing.T, label string, got, want *graph.Graph) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() {
		t.Fatalf("%s: N,M = %d,%d, want %d,%d", label, got.N(), got.M(), want.N(), want.M())
	}
	if math.Float64bits(got.Volume()) != math.Float64bits(want.Volume()) {
		t.Fatalf("%s: Volume %v, want %v", label, got.Volume(), want.Volume())
	}
	gr, ga, gw := got.CSR()
	wr, wa, ww := want.CSR()
	for i := range wr {
		if gr[i] != wr[i] {
			t.Fatalf("%s: rowPtr[%d] = %d, want %d", label, i, gr[i], wr[i])
		}
	}
	for i := range wa {
		if ga[i] != wa[i] {
			t.Fatalf("%s: adj[%d] = %d, want %d", label, i, ga[i], wa[i])
		}
		if math.Float64bits(gw[i]) != math.Float64bits(ww[i]) {
			t.Fatalf("%s: w[%d] = %v, want %v", label, i, gw[i], ww[i])
		}
	}
	for u := 0; u < want.N(); u++ {
		if math.Float64bits(got.Degree(u)) != math.Float64bits(want.Degree(u)) {
			t.Fatalf("%s: Degree(%d) = %v, want %v", label, u, got.Degree(u), want.Degree(u))
		}
	}
}

func TestVolumeOfSet(t *testing.T) {
	hg := testGraphs(t)["weighted-f64"]
	set := []int{11, 3, 42, 0, 17}
	want := hg.VolumeOf(hg.Membership(set))
	for kind, g := range openBackends(t, hg) {
		// Any presentation order must land on the same float, bit for bit.
		shuffled := append([]int(nil), set...)
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 5; i++ {
			rng.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
			got := gstore.VolumeOfSet(g, shuffled)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: VolumeOfSet(%v) = %v, want %v", kind, shuffled, got, want)
			}
		}
		if got := gstore.VolumeOfSet(g, nil); got != 0 {
			t.Errorf("%s: VolumeOfSet(empty) = %v", kind, got)
		}
	}
	mustPanic(t, "duplicate", func() { gstore.VolumeOfSet(gstore.Wrap(hg), []int{1, 2, 1}) })
	mustPanic(t, "out-of-range", func() { gstore.VolumeOfSet(gstore.Wrap(hg), []int{hg.N()}) })
	mustPanic(t, "negative", func() { gstore.VolumeOfSet(gstore.Wrap(hg), []int{-1}) })
}

func mustPanic(t *testing.T, label string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", label)
		}
	}()
	fn()
}
