package kernel_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/gstore"
	"repro/internal/kernel"
)

// BatchDiffuser.Run calls the runner every Diffuse calls, so comparing
// the two compares the engine with itself. The
// references below share no code with it: they read the graph through
// the public gstore.Graph cursor only, keep their vectors in dense
// slices, and are written straight from the algorithms' definitions —
// no workspace, no rows view. The engine must match them
// Float64bits for Float64bits and Stats for Stats, on every backend and
// weight form, alone and batched.

// refQueue is the push algorithm's FIFO with set semantics.
type refQueue struct {
	buf []int
	in  []bool
}

func (q *refQueue) push(u int) {
	if !q.in[u] {
		q.in[u] = true
		q.buf = append(q.buf, u)
	}
}

func (q *refQueue) pop() int {
	u := q.buf[0]
	q.buf = q.buf[1:]
	q.in[u] = false
	return u
}

// refSeed returns the uniform distribution over the seed list (mass
// accumulating over duplicates, in list order) and its support
// ascending.
func refSeed(n int, seeds []int) (dist []float64, support []int) {
	dist = make([]float64, n)
	w := 1 / float64(len(seeds))
	for _, u := range seeds {
		if dist[u] == 0 {
			support = append(support, u)
		}
		dist[u] += w
	}
	sort.Ints(support)
	return dist, support
}

// refPush is the ACL push: FIFO over nodes with r(u) ≥ ε·deg(u),
// starting from the seeds in ascending order.
func refPush(g gstore.Graph, seeds []int, alpha, eps float64) (p, r []float64, st kernel.Stats) {
	n := g.N()
	p = make([]float64, n)
	r, support := refSeed(n, seeds)
	q := refQueue{in: make([]bool, n)}
	for _, u := range support {
		q.push(u)
	}
	for len(q.buf) > 0 {
		u := q.pop()
		du := g.Degree(u)
		if du == 0 {
			p[u] += r[u]
			r[u] = 0
			continue
		}
		ru := r[u]
		if ru < eps*du {
			continue
		}
		p[u] += alpha * ru
		r[u] = (1 - alpha) * ru / 2
		if r[u] >= eps*du {
			q.push(u)
		}
		spread := (1 - alpha) * ru / 2
		it := g.Neighbors(u)
		for v, w, ok := it.Next(); ok; v, w, ok = it.Next() {
			r[v] += spread * w / du
			if r[v] >= eps*g.Degree(v) {
				q.push(v)
			}
		}
		st.Pushes++
		st.WorkVolume += du
	}
	for _, x := range p {
		if x != 0 {
			st.MaxSupport++
		}
	}
	return p, r, st
}

// refWalkStep is one lazy-walk step W = (I + AD⁻¹)/2 from the
// distribution cur (support ascending), truncated below eps·deg.
func refWalkStep(g gstore.Graph, cur []float64, support []int, eps float64) (next []float64, nextSupport []int) {
	n := g.N()
	next = make([]float64, n)
	touched := make([]bool, n)
	for _, u := range support {
		mass, du := cur[u], g.Degree(u)
		touched[u] = true
		if du == 0 {
			next[u] += mass
			continue
		}
		next[u] += mass / 2
		it := g.Neighbors(u)
		for v, w, ok := it.Next(); ok; v, w, ok = it.Next() {
			touched[v] = true
			next[v] += mass / 2 * w / du
		}
	}
	for u := 0; u < n; u++ {
		if !touched[u] {
			continue
		}
		if next[u] < eps*g.Degree(u) {
			next[u] = 0
			continue
		}
		nextSupport = append(nextSupport, u)
	}
	return next, nextSupport
}

// refNibble is the truncated walk; trace gets one line per live step.
func refNibble(g gstore.Graph, seeds []int, eps float64, steps int, trace *[]string) (p, r []float64, st kernel.Stats) {
	cur, support := refSeed(g.N(), seeds)
	for step := 1; step <= steps; step++ {
		cur, support = refWalkStep(g, cur, support, eps)
		if len(support) == 0 {
			break
		}
		st.MaxSupport = max(st.MaxSupport, len(support))
		st.Steps = step
		*trace = append(*trace, stepLine(step, func(visit func(int, float64)) {
			for _, u := range support {
				visit(u, cur[u])
			}
		}))
	}
	return cur, cur, st
}

// refHeat is the truncated Taylor expansion of exp(−t(I−W))·s.
func refHeat(g gstore.Graph, seeds []int, t, eps float64) (p, r []float64, st kernel.Stats) {
	terms, tail, term := 1, 1-math.Exp(-t), math.Exp(-t)
	for tail > eps/2 && terms < 10000 {
		term *= t / float64(terms)
		tail -= term
		terms++
	}
	cur, support := refSeed(g.N(), seeds)
	p = make([]float64, g.N())
	weight := math.Exp(-t)
	for _, u := range support {
		p[u] += weight * cur[u]
	}
	for k := 1; k <= terms; k++ {
		cur, support = refWalkStep(g, cur, support, eps)
		weight *= t / float64(k)
		for _, u := range support {
			p[u] += weight * cur[u]
		}
		st.MaxSupport = max(st.MaxSupport, len(support))
		st.Terms = k
		if len(support) == 0 {
			break
		}
	}
	return p, cur, st
}

// refSweepScan walks the prefixes of order, one line per prefix.
func refSweepScan(g gstore.Graph, order []int) []string {
	inS := make([]bool, g.N())
	var cut, vol float64
	var lines []string
	for k, u := range order {
		it := g.Neighbors(u)
		for v, w, ok := it.Next(); ok; v, w, ok = it.Next() {
			if inS[v] {
				cut -= w
			} else {
				cut += w
			}
		}
		inS[u] = true
		vol += g.Degree(u)
		lines = append(lines, sweepLine(k+1, cut, vol))
	}
	return lines
}

func sweepLine(size int, cut, vol float64) string {
	return fmt.Sprintf("%d cut=%016x vol=%016x", size, math.Float64bits(cut), math.Float64bits(vol))
}

func stepLine(step int, each func(visit func(u int, x float64))) string {
	s := fmt.Sprintf("step=%d", step)
	each(func(u int, x float64) { s += fmt.Sprintf(" %d:%016x", u, math.Float64bits(x)) })
	return s
}

// oracleGraph is a random graph on 110 nodes with weights drawn from
// the given set, followed by 10 isolated nodes.
func oracleGraph(t testing.TB, weights []float64) *graph.Graph {
	t.Helper()
	const n, isolated = 120, 10
	rng := rand.New(rand.NewSource(5))
	b := graph.NewBuilder(n)
	for u := 0; u < n-isolated; u++ {
		for v := u + 1; v < n-isolated; v++ {
			if rng.Float64() < 0.05 {
				b.AddWeightedEdge(u, v, weights[rng.Intn(len(weights))])
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

type oracleCase struct {
	name   string
	method kernel.Diffuser
	ref    func(g gstore.Graph, seeds []int, trace *[]string) (p, r []float64, st kernel.Stats)
}

func oracleCases() []oracleCase {
	push := func(alpha, eps float64) oracleCase {
		return oracleCase{fmt.Sprintf("push/a%g/e%g", alpha, eps), kernel.PushACL{Alpha: alpha, Eps: eps},
			func(g gstore.Graph, seeds []int, _ *[]string) ([]float64, []float64, kernel.Stats) {
				return refPush(g, seeds, alpha, eps)
			}}
	}
	nibble := func(eps float64, steps int) oracleCase {
		return oracleCase{fmt.Sprintf("nibble/e%g/s%d", eps, steps), kernel.NibbleWalk{Eps: eps, Steps: steps},
			func(g gstore.Graph, seeds []int, trace *[]string) ([]float64, []float64, kernel.Stats) {
				return refNibble(g, seeds, eps, steps, trace)
			}}
	}
	heat := func(tt, eps float64) oracleCase {
		return oracleCase{fmt.Sprintf("heat/t%g/e%g", tt, eps), kernel.HeatKernel{T: tt, Eps: eps},
			func(g gstore.Graph, seeds []int, _ *[]string) ([]float64, []float64, kernel.Stats) {
				return refHeat(g, seeds, tt, eps)
			}}
	}
	return []oracleCase{
		push(0.13, 3e-5), push(0.4, 2e-3),
		nibble(1e-4, 18), nibble(0.02, 40), // the second walk dies out before its step budget
		heat(4.5, 1e-4), heat(1.5, 5e-3),
	}
}

// result is one finished diffusion copied out of its workspace.
type result struct {
	p, r []float64
	st   kernel.Stats
}

func snapshot(ws *kernel.Workspace, st kernel.Stats) result {
	res := result{p: make([]float64, ws.N()), r: make([]float64, ws.N()), st: st}
	ws.ForEachP(func(u int, x float64) { res.p[u] = x })
	ws.ForEachR(func(u int, x float64) { res.r[u] = x })
	return res
}

// checkResult holds a diffusion's planes and stats equal to the
// reference's, node by node.
func checkResult(t *testing.T, label string, got result, p, r []float64, want kernel.Stats) {
	t.Helper()
	if got.st != want {
		t.Fatalf("%s: stats %+v, reference %+v", label, got.st, want)
	}
	for u := range p {
		if math.Float64bits(got.p[u]) != math.Float64bits(p[u]) {
			t.Fatalf("%s: P(%d) = %v (%016x), reference %v (%016x)", label, u, got.p[u], math.Float64bits(got.p[u]), p[u], math.Float64bits(p[u]))
		}
		if math.Float64bits(got.r[u]) != math.Float64bits(r[u]) {
			t.Fatalf("%s: R(%d) = %v (%016x), reference %v (%016x)", label, u, got.r[u], math.Float64bits(got.r[u]), r[u], math.Float64bits(r[u]))
		}
	}
}

func sameLines(t *testing.T, label string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d lines, reference %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: line %d diverges:\nengine:    %.200s\nreference: %.200s", label, i, got[i], want[i])
		}
	}
}

func traceR(step int, ws *kernel.Workspace) string {
	return stepLine(step, func(visit func(int, float64)) { ws.ForEachR(visit) })
}

// TestEngineMatchesOracle: heap / compact / mmap × unit / f32 / f64
// weights × push / nibble / heat, through Diffuse (seed sets, one with
// a duplicate, and an isolated seed) and through BatchDiffuser.Run (13
// single seeds, one and four workers), including the
// walk's OnStep (step, frontier) sequence and the sweep scan over each
// finished plane.
func TestEngineMatchesOracle(t *testing.T) {
	weightForms := []struct {
		name    string
		weights []float64
	}{
		{"unit", []float64{1}},
		{"f32", []float64{0.5, 2.25, 8, 1}}, // dyadic: float32 holds them exactly
		{"f64", []float64{0.1, 0.3, 1.75}},  // 0.1 and 0.3 are not float32-representable
	}
	seedSets := [][]int{{0}, {3, 3, 9}, {17, 4, 60, 4}, {115}, {115, 2}} // 115 is isolated
	batchSeeds := []int{0, 37, 3, 0, 115, 74, 9, 109, 41, 78, 5, 5, 119}
	for _, wf := range weightForms {
		hg := oracleGraph(t, wf.weights)
		if hg.Degree(115) != 0 || hg.Degree(119) != 0 {
			t.Fatal("fixture lost its isolated nodes")
		}
		backends := batchBackends(t, hg)
		c := backends["compact"].(*gstore.Compact)
		if w32, w64 := c.RawWeights32() != nil, c.RawWeights64() != nil; w32 != (wf.name == "f32") || w64 != (wf.name == "f64") {
			t.Fatalf("%s fixture stored with w32=%v w64=%v", wf.name, w32, w64)
		}
		for backendName, g := range backends {
			pool := kernel.NewPool(g.N())
			for _, oc := range oracleCases() {
				t.Run(wf.name+"/"+backendName+"/"+oc.name, func(t *testing.T) {
					_, isNibble := oc.method.(kernel.NibbleWalk)

					for _, seeds := range seedSets {
						label := fmt.Sprintf("Diffuse(%v)", seeds)
						var wantTrace, gotTrace []string
						p, r, want := oc.ref(g, seeds, &wantTrace)
						method := oc.method
						if nw, ok := method.(kernel.NibbleWalk); ok {
							nw.OnStep = func(step int, ws *kernel.Workspace) error {
								gotTrace = append(gotTrace, traceR(step, ws))
								return nil
							}
							method = nw
						}
						ws := pool.Get()
						st, err := method.Diffuse(g, ws, seeds)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						checkResult(t, label, snapshot(ws, st), p, r, want)
						sameLines(t, label+" OnStep", gotTrace, wantTrace)

						var gotSweep []string
						order := ws.SweepNodes(nil, ws.SweepOrderP(g))
						ws.SweepScan(g, len(order), func(size int, cut, vol float64) bool {
							gotSweep = append(gotSweep, sweepLine(size, cut, vol))
							return true
						})
						sameLines(t, label+" SweepScan", gotSweep, refSweepScan(g, order))
						pool.Put(ws)
					}

					for _, workers := range []int{1, 4} {
						// Seeds emit from par's goroutines: copy out there,
						// compare here.
						got := make([]result, len(batchSeeds))
						gotTraces := make([][]string, len(batchSeeds))
						bd := kernel.BatchDiffuser{Method: oc.method, Workers: workers}
						if isNibble {
							bd.OnStep = func(i, step int, ws *kernel.Workspace) error {
								gotTraces[i] = append(gotTraces[i], traceR(step, ws))
								return nil
							}
						}
						_, err := bd.Run(context.Background(), g, pool, batchSeeds, func(i int, ws *kernel.Workspace, st kernel.Stats) error {
							got[i] = snapshot(ws, st)
							return nil
						})
						if err != nil {
							t.Fatalf("Run(workers=%d): %v", workers, err)
						}
						for i := range batchSeeds {
							label := fmt.Sprintf("Run(workers=%d) seed[%d]=%d", workers, i, batchSeeds[i])
							var wantTrace []string
							p, r, want := oc.ref(g, batchSeeds[i:i+1], &wantTrace)
							checkResult(t, label, got[i], p, r, want)
							sameLines(t, label+" OnStep", gotTraces[i], wantTrace)
						}
					}
				})
			}
		}
	}
}
