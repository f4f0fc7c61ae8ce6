package local

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/gstore"
	"repro/internal/kernel"
)

// This file locks the kernel engine swap with value-exact parity tests:
// for every diffusion, the indexed workspace implementation must equal
// the legacy map-based implementation bit for bit, node by node, across
// a table of graph shapes and parameter grids. The map oracles below
// are the pre-refactor implementations (the push with one rule change,
// below; the walks with their map iteration pinned to ascending node
// order, which is the deterministic order the kernel now guarantees).

// mapPush is the legacy map-based ACL push, the oracle: the kernel's
// FIFO order and per-operation arithmetic are required to reproduce it
// exactly. Its one change from the legacy code is the push rule: a node
// the lazy step would re-queue (its kept half still ≥ ε·deg) is settled
// in closed form instead. Twin copy: benchPushMap in the root
// bench_test.go is the same code serving as the benchmark baseline —
// change both together.
func mapPush(g *graph.Graph, seeds []int, alpha, eps float64) (p, r SparseVec, pushes int, work float64) {
	p = make(SparseVec)
	r = make(SparseVec)
	w := 1 / float64(len(seeds))
	for _, u := range seeds {
		r[u] += w
	}
	queue := append([]int(nil), r.Support()...)
	inQueue := make(map[int]bool)
	for _, u := range queue {
		inQueue[u] = true
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		inQueue[u] = false
		du := g.Degree(u)
		if du == 0 {
			p[u] += r[u]
			delete(r, u)
			continue
		}
		if r[u] < eps*du {
			continue
		}
		ru := r[u]
		spread := (1 - alpha) * ru / 2
		if spread < eps*du {
			p[u] += alpha * ru
			r[u] = spread
		} else {
			// Settle u: its own lazy steps, summed in closed form.
			p[u] += 2 * alpha / (1 + alpha) * ru
			delete(r, u)
			spread = (1 - alpha) / (1 + alpha) * ru
		}
		nbrs, ws := g.Neighbors(u)
		for i, v := range nbrs {
			r[v] += spread * ws[i] / du
			if r[v] >= eps*g.Degree(v) && !inQueue[v] {
				queue = append(queue, v)
				inQueue[v] = true
			}
		}
		pushes++
		work += du
	}
	return p, r, pushes, work
}

// sortedKeys pins a map iteration to ascending node order, the
// deterministic order the kernel walks in.
func sortedKeys(v SparseVec) []int {
	out := make([]int, 0, len(v))
	for u := range v {
		out = append(out, u)
	}
	sort.Ints(out)
	return out
}

// mapWalkStep is one legacy lazy-walk step + truncation over maps.
func mapWalkStep(g *graph.Graph, q SparseVec, eps float64) SparseVec {
	next := make(SparseVec, len(q)*2)
	for _, u := range sortedKeys(q) {
		mass := q[u]
		du := g.Degree(u)
		if du == 0 {
			next[u] += mass
			continue
		}
		next[u] += mass / 2
		nbrs, ws := g.Neighbors(u)
		for i, v := range nbrs {
			next[v] += mass / 2 * ws[i] / du
		}
	}
	for u, mass := range next {
		if mass < eps*g.Degree(u) {
			delete(next, u)
		}
	}
	return next
}

// mapNibble is the legacy map-based truncated walk (iteration order
// pinned), the oracle for the kernel NibbleWalk.
func mapNibble(g *graph.Graph, seeds []int, eps float64, steps int) (dist SparseVec, nsteps, maxSupport int) {
	q := make(SparseVec)
	w := 1 / float64(len(seeds))
	for _, u := range seeds {
		q[u] += w
	}
	for step := 1; step <= steps; step++ {
		q = mapWalkStep(g, q, eps)
		if len(q) == 0 {
			break
		}
		if len(q) > maxSupport {
			maxSupport = len(q)
		}
		nsteps = step
	}
	return q, nsteps, maxSupport
}

// mapHeatKernel is the legacy map-based truncated Taylor expansion
// (iteration order pinned), the oracle for the kernel HeatKernel.
func mapHeatKernel(g *graph.Graph, seeds []int, t, eps float64) (out SparseVec, terms, maxSupport int) {
	seed := make(SparseVec)
	w := 1 / float64(len(seeds))
	for _, u := range seeds {
		seed[u] += w
	}
	k := 1
	tail := 1 - math.Exp(-t)
	term := math.Exp(-t)
	for tail > eps/2 && k < 10000 {
		term *= t / float64(k)
		tail -= term
		k++
	}
	out = make(SparseVec, len(seed))
	cur := make(SparseVec, len(seed))
	for _, u := range sortedKeys(seed) {
		cur[u] = seed[u]
		out[u] = math.Exp(-t) * seed[u]
	}
	weight := math.Exp(-t)
	for kk := 1; kk <= k; kk++ {
		cur = mapWalkStep(g, cur, eps)
		weight *= t / float64(kk)
		for _, u := range sortedKeys(cur) {
			out[u] += weight * cur[u]
		}
		if len(cur) > maxSupport {
			maxSupport = len(cur)
		}
		terms = kk
		if len(cur) == 0 {
			break
		}
	}
	return out, terms, maxSupport
}

// parityGraphs is the table of graph shapes the parity grids run over:
// cliquey, stringy, random, power-lawish, and containing isolated and
// zero-degree corner cases.
func parityGraphs(t testing.TB) map[string]*graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	ff, err := gen.ForestFire(gen.ForestFireConfig{N: 600, FwdProb: 0.35, Ambs: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	er, err := gen.ErdosRenyi(120, 0.05, rng)
	if err != nil {
		t.Fatal(err)
	}
	// A graph with isolated nodes: path plus trailing disconnected ids.
	b := graph.NewBuilder(20)
	for i := 0; i < 14; i++ {
		b.AddEdge(i, i+1)
	}
	withIsolated, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{
		"ring-of-cliques": gen.RingOfCliques(5, 6),
		"dumbbell":        gen.Dumbbell(8, 3),
		"path":            gen.Path(64),
		"forest-fire":     ff,
		"erdos-renyi":     er,
		"with-isolated":   withIsolated,
	}
}

func sparseEqualExact(t *testing.T, label string, got, want SparseVec) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: support %d != oracle %d", label, len(got), len(want))
	}
	for u, x := range want {
		if gx, ok := got[u]; !ok || gx != x {
			t.Fatalf("%s: node %d = %v, oracle %v (must be bit-identical)", label, u, got[u], x)
		}
	}
}

// TestPushMatchesMapOracle: the kernel push equals the map push
// value-exactly (same support, bit-identical values, same work counts)
// across graphs × seed sets × (α, ε).
func TestPushMatchesMapOracle(t *testing.T) {
	alphas := []float64{0.25, 0.1, 0.01}
	epss := []float64{1e-2, 1e-4, 1e-6}
	for name, g := range parityGraphs(t) {
		seedSets := [][]int{{0}, {g.N() / 2}, {0, 1, g.N() - 1}, {3, 3}}
		for _, seeds := range seedSets {
			for _, alpha := range alphas {
				for _, eps := range epss {
					label := fmt.Sprintf("%s seeds=%v a=%g e=%g", name, seeds, alpha, eps)
					res, err := ApproxPageRank(gstore.Wrap(g), seeds, alpha, eps)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					p, r, pushes, work := mapPush(g, seeds, alpha, eps)
					sparseEqualExact(t, label+" p", res.P, p)
					sparseEqualExact(t, label+" r", res.R, r)
					if res.Pushes != pushes || res.WorkVolume != work {
						t.Fatalf("%s: stats (%d,%v) != oracle (%d,%v)",
							label, res.Pushes, res.WorkVolume, pushes, work)
					}
				}
			}
		}
	}
}

// TestNibbleMatchesMapOracle: the kernel walk equals the order-pinned
// legacy map walk value-exactly across graphs × (ε, steps).
func TestNibbleMatchesMapOracle(t *testing.T) {
	for name, g := range parityGraphs(t) {
		for _, eps := range []float64{1e-2, 1e-3, 1e-5} {
			for _, steps := range []int{1, 7, 25} {
				label := fmt.Sprintf("%s e=%g steps=%d", name, eps, steps)
				res, err := Nibble(gstore.Wrap(g), []int{0, g.N() - 1}, eps, steps)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				dist, nsteps, maxSupport := mapNibble(g, []int{0, g.N() - 1}, eps, steps)
				sparseEqualExact(t, label, res.Dist, dist)
				if res.Steps != nsteps || res.MaxSupport != maxSupport {
					t.Fatalf("%s: (steps,max)=(%d,%d) != oracle (%d,%d)",
						label, res.Steps, res.MaxSupport, nsteps, maxSupport)
				}
			}
		}
	}
}

// TestHeatKernelMatchesMapOracle: the kernel Taylor expansion equals
// the order-pinned legacy map expansion value-exactly across
// graphs × (t, ε).
func TestHeatKernelMatchesMapOracle(t *testing.T) {
	for name, g := range parityGraphs(t) {
		for _, tv := range []float64{0.5, 2, 8} {
			for _, eps := range []float64{1e-3, 1e-6} {
				label := fmt.Sprintf("%s t=%g e=%g", name, tv, eps)
				ws := kernel.NewWorkspace(g.N())
				st, err := kernel.HeatKernel{T: tv, Eps: eps}.DiffuseContext(context.Background(), gstore.Wrap(g), ws, []int{1})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				out, terms, maxSupport := mapHeatKernel(g, []int{1}, tv, eps)
				sparseEqualExact(t, label, FromWorkspaceP(ws), out)
				if st.Terms != terms || st.MaxSupport != maxSupport {
					t.Fatalf("%s: (terms,max)=(%d,%d) != oracle (%d,%d)",
						label, st.Terms, st.MaxSupport, terms, maxSupport)
				}
			}
		}
	}
}

// TestWorkspaceSweepMatchesMapSweep: the allocation-light workspace
// sweep path produces the same order and the same cut as the map path.
func TestWorkspaceSweepMatchesMapSweep(t *testing.T) {
	for name, g := range parityGraphs(t) {
		res, err := ApproxPageRank(gstore.Wrap(g), []int{0}, 0.1, 1e-4)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ws := kernel.NewWorkspace(g.N())
		if _, err := (kernel.PushACL{Alpha: 0.1, Eps: 1e-4}).Diffuse(gstore.Wrap(g), ws, []int{0}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mapOrder := SweepOrder(DegreeNormalized(gstore.Wrap(g), res.P))
		k := ws.SweepOrderP(gstore.Wrap(g))
		wsOrder := ws.SweepNodes(make([]int, 0, k), k)
		if len(mapOrder) != len(wsOrder) {
			t.Fatalf("%s: order lengths %d vs %d", name, len(mapOrder), len(wsOrder))
		}
		for i := range mapOrder {
			if mapOrder[i] != wsOrder[i] {
				t.Fatalf("%s: sweep order diverges at %d: %d vs %d", name, i, mapOrder[i], wsOrder[i])
			}
		}
		mapCut, mapErr := SweepCut(gstore.Wrap(g), res.P)
		wsCut, wsErr := WorkspaceSweepCut(gstore.Wrap(g), ws)
		if (mapErr == nil) != (wsErr == nil) {
			t.Fatalf("%s: sweep errors diverge: %v vs %v", name, mapErr, wsErr)
		}
		if mapErr != nil {
			continue
		}
		if mapCut.Conductance != wsCut.Conductance || mapCut.Prefix != wsCut.Prefix {
			t.Fatalf("%s: cuts diverge: (φ=%v,k=%d) vs (φ=%v,k=%d)",
				name, mapCut.Conductance, mapCut.Prefix, wsCut.Conductance, wsCut.Prefix)
		}
	}
}
