package kernel_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/gstore"
	"repro/internal/kernel"
)

// certTol is the certificate's absolute tolerance. An absolute bound,
// not a relative one: the recomputed residual of a node the push barely
// touched is a difference of nearly equal terms, so its relative error
// is large even when its absolute error is a few ulps of p.
const certTol = 1e-12

// certifyPush checks a finished push from its output alone, without
// replaying it. The lazy PPR vector solves p = α·s + (1−α)·W·p with
// W = (I + A·D⁻¹)/2, and an isolated node has W = I (the push banks its
// whole residual), so any exact push operation on that system leaves
//
//	r = s − (p − (1−α)·W·p)/α.
//
// certifyPush recomputes that r̂ in O(vol(supp p)) and holds the R
// plane to it, r̂ to nonnegative, and r̂[u] to below ε·deg(u), each up
// to certTol. It holds for any push order and any push rule that solves
// the same system.
func certifyPush(g gstore.Graph, seeds []int, alpha, eps float64, ws *kernel.Workspace) error {
	s := map[int]float64{}
	w := 1 / float64(len(seeds))
	for _, u := range seeds {
		s[u] += w
	}
	p, wp, r := map[int]float64{}, map[int]float64{}, map[int]float64{}
	ws.ForEachP(func(u int, x float64) {
		p[u] = x
		du := g.Degree(u)
		if du == 0 {
			wp[u] += x
			return
		}
		wp[u] += x / 2
		it := g.Neighbors(u)
		for v, wt, ok := it.Next(); ok; v, wt, ok = it.Next() {
			wp[v] += x / 2 * wt / du
		}
	})
	ws.ForEachR(func(u int, x float64) { r[u] = x })
	nodes := map[int]bool{}
	for _, m := range []map[int]float64{s, wp, r} {
		for u := range m {
			nodes[u] = true
		}
	}
	for u := range nodes {
		rhat := s[u] - (p[u]-(1-alpha)*wp[u])/alpha
		switch {
		case math.Abs(rhat-r[u]) > certTol:
			return fmt.Errorf("node %d: certified residual %g, R plane %g (off by %g)", u, rhat, r[u], rhat-r[u])
		case rhat < -certTol:
			return fmt.Errorf("node %d: certified residual %g is negative", u, rhat)
		case rhat >= eps*g.Degree(u)+certTol:
			return fmt.Errorf("node %d: certified residual %g not below eps*deg = %g", u, rhat, eps*g.Degree(u))
		}
	}
	return nil
}

// TestPushCertificate holds every push the engine runs — alone and
// emitted by BatchDiffuser.Run, on every backend and weight form, from
// seed sets with duplicates and isolated seeds, at shallow and deep ε —
// to certifyPush.
func TestPushCertificate(t *testing.T) {
	kron, err := gen.Kronecker(gen.KroneckerConfig{Levels: 12}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	graphs := []struct {
		name       string
		backends   map[string]gstore.Graph
		seedSets   [][]int
		batchSeeds []int
	}{
		{"unit", batchBackends(t, oracleGraph(t, []float64{1})), nil, nil},
		{"f32", batchBackends(t, oracleGraph(t, []float64{0.5, 2.25, 8, 1})), nil, nil},
		{"f64", batchBackends(t, oracleGraph(t, []float64{0.1, 0.3, 1.75})), nil, nil},
		{"kronecker12", batchBackends(t, kron), [][]int{{1}, {7, 7, 300}, {4095, 2048}}, []int{0, 1, 2, 3, 1, 4000}},
	}
	for i := range graphs[:3] {
		graphs[i].seedSets = [][]int{{0}, {3, 3, 9}, {17, 4, 60, 4}, {115}, {115, 2}} // 115 is isolated
		graphs[i].batchSeeds = []int{0, 37, 3, 0, 115, 74, 9, 109, 41, 78, 5, 5, 119}
	}
	params := []kernel.PushACL{{Alpha: 0.13, Eps: 3e-5}, {Alpha: 0.4, Eps: 2e-3}, {Alpha: 0.15, Eps: 1e-6}, {Alpha: 0.05, Eps: 1e-7}}
	for _, gr := range graphs {
		for backendName, g := range gr.backends {
			pool := kernel.NewPool(g.N())
			for _, d := range params {
				t.Run(fmt.Sprintf("%s/%s/a%g/e%g", gr.name, backendName, d.Alpha, d.Eps), func(t *testing.T) {
					for _, seeds := range gr.seedSets {
						ws := pool.Get()
						if _, err := d.Diffuse(g, ws, seeds); err != nil {
							t.Fatalf("Diffuse(%v): %v", seeds, err)
						}
						if err := certifyPush(g, seeds, d.Alpha, d.Eps, ws); err != nil {
							t.Fatalf("Diffuse(%v): %v", seeds, err)
						}
						pool.Put(ws)
					}
					bd := kernel.BatchDiffuser{Method: d, Workers: 4}
					_, err := bd.Run(context.Background(), g, pool, gr.batchSeeds, func(i int, ws *kernel.Workspace, _ kernel.Stats) error {
						if err := certifyPush(g, gr.batchSeeds[i:i+1], d.Alpha, d.Eps, ws); err != nil {
							return fmt.Errorf("seed[%d]=%d: %w", i, gr.batchSeeds[i], err)
						}
						return nil
					})
					if err != nil {
						t.Fatalf("Run: %v", err)
					}
				})
			}
		}
	}
}

// TestPushWorkCounts pins the exact work the push does on the G14
// Kronecker graph (seed 1) from 64 fixed non-isolated seeds: the sums
// of Pushes, WorkVolume and MaxSupport at a shallow and a deep ε. The
// counts are integers, independent of timing and hardware, so a change
// to the push rule or its queue order that costs work fails here.
func TestPushWorkCounts(t *testing.T) {
	hg, err := gen.Kronecker(gen.KroneckerConfig{Levels: 14}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	g := gstore.Wrap(hg)
	var seeds []int
	for u := 0; u < g.N(); u++ {
		if g.Degree(u) > 0 {
			seeds = append(seeds, u)
		}
	}
	rand.New(rand.NewSource(1)).Shuffle(len(seeds), func(i, j int) { seeds[i], seeds[j] = seeds[j], seeds[i] })
	seeds = seeds[:64]
	ws := kernel.NewWorkspace(g.N())
	for _, c := range []struct {
		eps                 float64
		pushes, work, suppt int
	}{
		{1e-4, 3461, 101955, 3231},
		{1e-6, 2094257, 50604229, 701021},
	} {
		d := kernel.PushACL{Alpha: 0.15, Eps: c.eps}
		var pushes, suppt int
		var work float64
		for _, s := range seeds {
			st, err := d.Diffuse(g, ws, []int{s})
			if err != nil {
				t.Fatal(err)
			}
			pushes, work, suppt = pushes+st.Pushes, work+st.WorkVolume, suppt+st.MaxSupport
		}
		if pushes != c.pushes || work != float64(c.work) || suppt != c.suppt {
			t.Errorf("eps %g: pushes %d, work volume %v, support %d; pinned %d, %d, %d", c.eps, pushes, work, suppt, c.pushes, c.work, c.suppt)
		}
	}
}
