package graph

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// oracleBuild is Build as it was before the builder kept one sorted-copy
// edge list: three parallel arrays in arrival order, each edge
// normalised to u < v at build time, a reflection sort.Slice on (u,v),
// and count/cursor arrays beside rowPtr. Self-loops are dropped as
// AddWeightedEdge drops them.
func oracleBuild(n int, us, vs []int, ws []float64) (*Graph, error) {
	type edge struct {
		u, v int
		w    float64
	}
	es := make([]edge, 0, len(us))
	for i := range us {
		u, v := us[i], vs[i]
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		es = append(es, edge{u, v, ws[i]})
	}
	sort.Slice(es, func(a, c int) bool {
		if es[a].u != es[c].u {
			return es[a].u < es[c].u
		}
		return es[a].v < es[c].v
	})
	merged := es[:0]
	for i := 0; i < len(es); {
		j := i + 1
		w := es[i].w
		for j < len(es) && es[j].u == es[i].u && es[j].v == es[i].v {
			w += es[j].w
			j++
		}
		if math.IsInf(w, 0) {
			return nil, fmt.Errorf("graph: edge (%d,%d) merged weight overflows", es[i].u, es[i].v)
		}
		merged = append(merged, edge{es[i].u, es[i].v, w})
		i = j
	}
	es = merged
	g := &Graph{kind: KindCompact, n: n, m: len(es), rowPtr: make([]int64, n+1), deg: make([]float64, n)}
	counts := make([]int64, n)
	for _, e := range es {
		counts[e.u]++
		counts[e.v]++
	}
	for i := 0; i < n; i++ {
		g.rowPtr[i+1] = g.rowPtr[i] + counts[i]
	}
	g.adj = make([]uint32, g.rowPtr[n])
	w := make([]float64, g.rowPtr[n])
	pos := make([]int64, n)
	copy(pos, g.rowPtr[:n])
	for _, e := range es {
		g.adj[pos[e.u]] = uint32(e.v)
		w[pos[e.u]] = e.w
		pos[e.u]++
		g.adj[pos[e.v]] = uint32(e.u)
		w[pos[e.v]] = e.w
		pos[e.v]++
		g.deg[e.u] += e.w
		g.deg[e.v] += e.w
	}
	g.w32, g.w64 = NarrowWeights(w)
	for _, d := range g.deg {
		g.volume += d
	}
	return g, nil
}

// sameGraph fails unless a and b agree to the bit: every CSR array,
// each weight array's presence, degree, the volume and the edge count.
func sameGraph(t *testing.T, what string, a, b *Graph) {
	t.Helper()
	bits := func(fs []float64) []uint64 {
		out := make([]uint64, len(fs))
		for i, f := range fs {
			out[i] = math.Float64bits(f)
		}
		return out
	}
	if a.kind != b.kind || a.n != b.n || a.m != b.m ||
		!slices.Equal(a.rowPtr, b.rowPtr) || !slices.Equal(a.adj, b.adj) ||
		(a.w32 == nil) != (b.w32 == nil) || !slices.Equal(a.w32, b.w32) ||
		(a.w64 == nil) != (b.w64 == nil) || !slices.Equal(bits(a.w64), bits(b.w64)) ||
		!slices.Equal(bits(a.deg), bits(b.deg)) ||
		math.Float64bits(a.volume) != math.Float64bits(b.volume) {
		t.Fatalf("%s: graphs differ:\n%+v\n%+v", what, a, b)
	}
}

// randomEdges is a random weighted multigraph's arrival order on n
// nodes: every pair it draws comes three times with random weights, in
// either orientation, among self-loops and edges seen once.
func randomEdges(rng *rand.Rand, n int) (us, vs []int, ws []float64) {
	weight := func() float64 {
		switch rng.Intn(3) {
		case 0:
			return 1
		case 1:
			return 0.1 * float64(1+rng.Intn(30))
		}
		return rng.ExpFloat64()
	}
	add := func(u, v int) {
		us, vs, ws = append(us, u), append(vs, v), append(ws, weight())
	}
	for e := rng.Intn(6 * n); e > 0; e-- {
		u, v := rng.Intn(n), rng.Intn(n)
		add(u, v)
		if rng.Intn(3) == 0 {
			add(v, u)
			add(u, v)
		}
	}
	// Shuffle, so the copies of a pair arrive apart and in either order.
	rng.Shuffle(len(us), func(i, j int) {
		us[i], us[j] = us[j], us[i]
		vs[i], vs[j] = vs[j], vs[i]
		ws[i], ws[j] = ws[j], ws[i]
	})
	return us, vs, ws
}

// chunkCounts are stored-edge counts around the builder's chunk
// boundaries: one short of a chunk, a full one, one over, and a few
// chunks and a partial one.
var chunkCounts = []int{builderChunk - 1, builderChunk, builderChunk + 1, 3*builderChunk + 7}

// randomEdgesCount is randomEdges on n >= 2 nodes, drawn until it holds
// k edges that are not self-loops and cut after the k-th: a builder fed
// it stores exactly k edges.
func randomEdgesCount(rng *rand.Rand, n, k int) (us, vs []int, ws []float64) {
	for {
		a, b, c := randomEdges(rng, n)
		us, vs, ws = append(us, a...), append(vs, b...), append(ws, c...)
		stored := 0
		for i := range us {
			if us[i] == vs[i] {
				continue
			}
			if stored++; stored == k {
				return us[:i+1], vs[:i+1], ws[:i+1]
			}
		}
	}
}

// buildTrials calls each on the random multigraphs the builder tests
// run on: trials small ones on minN+rng.Intn(spanN) nodes, then one for
// each of chunkCounts.
func buildTrials(rng *rand.Rand, trials, minN, spanN int, each func(n int, us, vs []int, ws []float64)) {
	for trial := 0; trial < trials; trial++ {
		n := minN + rng.Intn(spanN)
		us, vs, ws := randomEdges(rng, n)
		each(n, us, vs, ws)
	}
	for _, k := range chunkCounts {
		n := 2 + rng.Intn(200)
		us, vs, ws := randomEdgesCount(rng, n, k)
		each(n, us, vs, ws)
	}
}

// TestBuildMatchesOracle: on random multigraphs with weighted triples,
// both orientations and self-loops, some of them filling the builder's
// chunks to their boundaries, Build gives the graph the old Build gave,
// to the bit; in particular every merged weight sums its parts in the
// old order.
func TestBuildMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	buildTrials(rng, 300, 1, 60, func(n int, us, vs []int, ws []float64) {
		b := NewBuilder(n)
		for i := range us {
			b.AddWeightedEdge(us[i], vs[i], ws[i])
		}
		got, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracleBuild(n, us, vs, ws)
		if err != nil {
			t.Fatal(err)
		}
		sameGraph(t, fmt.Sprintf("Build vs the old Build, %d arrivals", len(us)), got, want)
	})
}

// TestBuildLeavesBuilderIntact: Build, more edges, Build again gives what
// a fresh builder fed the same arrival order gives, as when a seal fails,
// the stream takes more batches, and the next seal must equal what WAL
// replay would rebuild.
func TestBuildLeavesBuilderIntact(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	buildTrials(rng, 100, 2, 40, func(n int, us, vs []int, ws []float64) {
		cut := rng.Intn(len(us) + 1)
		b, fresh := NewBuilder(n), NewBuilder(n)
		for i := range us {
			if i == cut {
				first, err := b.Build()
				if err != nil {
					t.Fatal(err)
				}
				want, _ := oracleBuild(n, us[:cut], vs[:cut], ws[:cut])
				sameGraph(t, "the first Build", first, want)
			}
			b.AddWeightedEdge(us[i], vs[i], ws[i])
			fresh.AddWeightedEdge(us[i], vs[i], ws[i])
		}
		got, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Build()
		if err != nil {
			t.Fatal(err)
		}
		sameGraph(t, "Build, Add, Build vs a fresh builder", got, want)
	})
}

// TestBuildOverflowAndBounds: a pair whose merged weight overflows fails
// Build, and so does a node count a uint32 endpoint cannot index.
func TestBuildOverflowAndBounds(t *testing.T) {
	b := NewBuilder(3)
	b.AddWeightedEdge(0, 1, math.MaxFloat64)
	b.AddWeightedEdge(1, 0, math.MaxFloat64)
	if _, err := b.Build(); err == nil {
		t.Fatal("overflowing merged weight accepted")
	}
	for _, n := range []int{-1, math.MaxUint32 + 1} {
		if _, err := NewBuilder(n).Build(); err == nil {
			t.Fatalf("NewBuilder(%d) built a graph", n)
		}
	}
}

// TestBuildAllocs locks Build at six allocations whatever the graph's
// size: the sorted copy, the Graph and its four arrays (row pointers,
// adjacency, one weight array, degrees). The old Build took ten,
// reflection's among them.
func TestBuildAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	us, vs, ws := randomEdges(rng, 500)
	b := NewBuilder(500)
	for i := range us {
		b.AddWeightedEdge(us[i], vs[i], ws[i])
	}
	if got := testing.AllocsPerRun(20, func() {
		if _, err := b.Build(); err != nil {
			t.Fatal(err)
		}
	}); got > 6 {
		t.Fatalf("Build allocates %v times, want at most 6", got)
	}
}
