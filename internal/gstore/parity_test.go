package gstore_test

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/gstore"
	"repro/internal/kernel"
	"repro/internal/ncp"
	"repro/internal/partition"
)

// This file is the storage-engine parity suite: every diffusion and the
// NCP fingerprint must be byte-identical — Float64bits, not tolerances —
// on the compact and mmap backends, and equal to a pinned sha256. The
// pins were recorded while the kernel still also ran on the builder's
// own []int/[]float64 arrays, and all three forms agreed on them, so
// they tie today's results to the uncompacted graph. It is the
// executable form of the contract that lets graphd switch backends per
// graph (or per query, via ?backend=) without perturbing a single
// result: the compact form narrows weights only when lossless, degrees
// are carried bit-for-bit, and the kernel's loops accumulate in the
// builder's order.

// parityFingerprint runs each local diffusion on one backend and folds
// the complete output (support, value bits, counters, sweep cut) into a
// printable fingerprint. Equal fingerprints ⇒ byte-identical results.
// The push's residual comes from mapPush, after the kernel's output
// plane and counters are held equal to it bit for bit: the kernel keeps
// its residual plane to itself.
func parityFingerprint(t *testing.T, g gstore.Graph, seeds []int) string {
	t.Helper()
	var sb strings.Builder

	ws := kernel.NewWorkspace(g.N())
	pst, err := kernel.PushACL{Alpha: 0.12, Eps: 2e-5}.Diffuse(g, ws, seeds)
	if err != nil {
		t.Fatalf("push: %v", err)
	}
	p := planeP(ws)
	mp, mr, pushes, work := mapPush(g, seeds, 0.12, 2e-5)
	if got, want := fmt.Sprint(sparseLines(p)), fmt.Sprint(sparseLines(mp)); got != want || pst.Pushes != pushes || pst.WorkVolume != work {
		t.Fatalf("push diverges from the map push: (%d, %v) %.200s, map (%d, %v) %.200s", pst.Pushes, pst.WorkVolume, got, pushes, work, want)
	}
	fmt.Fprintf(&sb, "push pushes=%d work=%016x\n", pst.Pushes, math.Float64bits(pst.WorkVolume))
	writeSparse(&sb, "push.P", p)
	writeSparse(&sb, "push.R", mr)
	sw, err := mapSweepCut(g, degreeNormalized(g, p))
	if err == nil {
		writeSweep(&sb, "push.sweep", sw)
	} else {
		fmt.Fprintf(&sb, "push.sweep err=%v\n", err)
	}

	var best *partition.SweepResult
	walk := kernel.NibbleWalk{Eps: 2e-4, Steps: 12, OnStep: func(_ int, ws *kernel.Workspace) error {
		ws.SweepOrderR(g)
		if prefix, phi := ws.SweepBest(g); prefix > 0 && (best == nil || phi < best.Conductance) {
			best = &partition.SweepResult{Set: ws.SweepNodes(nil, prefix), Conductance: phi, Prefix: prefix}
		}
		return nil
	}}
	nb, err := walk.Diffuse(g, ws, seeds)
	if err != nil {
		t.Fatalf("Nibble: %v", err)
	}
	fmt.Fprintf(&sb, "nibble steps=%d maxsupport=%d\n", nb.Steps, nb.MaxSupport)
	writeSparse(&sb, "nibble.dist", planeP(ws))
	if best != nil {
		writeSweep(&sb, "nibble.best", best)
	}

	hk, err := kernel.HeatKernel{T: 4.0, Eps: 2e-4}.DiffuseContext(context.Background(), g, ws, seeds)
	if err != nil {
		t.Fatalf("HeatKernel: %v", err)
	}
	fmt.Fprintf(&sb, "heat terms=%d maxsupport=%d\n", hk.Terms, hk.MaxSupport)
	writeSparse(&sb, "heat.dist", planeP(ws))

	return sb.String()
}

// planeP snapshots a workspace's output plane as a map.
func planeP(ws *kernel.Workspace) map[int]float64 {
	out := make(map[int]float64)
	ws.ForEachP(func(u int, x float64) { out[u] = x })
	return out
}

// mapPush is the map-based ACL push over the gstore cursor, the
// oracle internal/kernel holds its push to: FIFO from the seeds in
// ascending order, the lazy step, or the closed-form settle when the
// kept half would re-queue the node.
func mapPush(g gstore.Graph, seeds []int, alpha, eps float64) (p, r map[int]float64, pushes int, work float64) {
	p, r = make(map[int]float64), make(map[int]float64)
	for _, u := range seeds {
		r[u] += 1 / float64(len(seeds))
	}
	queue := sortedKeys(r)
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
		ru := r[u]
		if ru < eps*du {
			continue
		}
		spread := (1 - alpha) * ru / 2
		if spread < eps*du {
			p[u] += alpha * ru
			r[u] = spread
		} else {
			p[u] += 2 * alpha / (1 + alpha) * ru
			delete(r, u)
			spread = (1 - alpha) / (1 + alpha) * ru
		}
		it := g.Neighbors(u)
		for v, w, ok := it.Next(); ok; v, w, ok = it.Next() {
			r[v] += spread * w / du
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

func sortedKeys(v map[int]float64) []int {
	keys := make([]int, 0, len(v))
	for u := range v {
		keys = append(keys, u)
	}
	sort.Ints(keys)
	return keys
}

// degreeNormalized is p(u)/deg(u) over the nodes of positive degree.
func degreeNormalized(g gstore.Graph, p map[int]float64) map[int]float64 {
	out := make(map[int]float64, len(p))
	for u, x := range p {
		if d := g.Degree(u); d > 0 {
			out[u] = x / d
		}
	}
	return out
}

// sweepOrder is the nodes of v by value descending, ties by node id.
func sweepOrder(v map[int]float64) []int {
	order := sortedKeys(v)
	sort.SliceStable(order, func(a, b int) bool { return v[order[a]] > v[order[b]] })
	return order
}

// mapSweepCut is the map-based sweep graphd ran before the kernel
// swept: v ordered by v(u)/deg(u), swept by partition.SweepCutOrdered,
// with its error texts.
func mapSweepCut(g gstore.Graph, v map[int]float64) (*partition.SweepResult, error) {
	if len(v) == 0 {
		return nil, errors.New("local: sweep over empty vector")
	}
	order := sweepOrder(degreeNormalized(g, v))
	if len(order) == 0 {
		return nil, errors.New("local: sweep support has only zero-degree nodes")
	}
	return partition.SweepCutOrdered(g, order, len(order))
}

// workspaceSweepCut is the kernel's sweep of ws's output plane, with
// the error texts graphd's ppr replies carry.
func workspaceSweepCut(g gstore.Graph, ws *kernel.Workspace) (*partition.SweepResult, error) {
	k := ws.SweepOrderP(g)
	switch {
	case k == 0 && ws.PSupport() == 0:
		return nil, errors.New("local: sweep over empty vector")
	case k == 0:
		return nil, errors.New("local: sweep support has only zero-degree nodes")
	}
	prefix, phi := ws.SweepBest(g)
	if prefix == 0 {
		return nil, errors.New("partition: sweep found no valid cut")
	}
	return &partition.SweepResult{Set: ws.SweepNodes(nil, prefix), Conductance: phi, Prefix: prefix}, nil
}

// sparseLines prints v's entries in ascending node order.
func sparseLines(v map[int]float64) []string {
	var lines []string
	for _, u := range sortedKeys(v) {
		lines = append(lines, fmt.Sprintf("%d:%016x", u, math.Float64bits(v[u])))
	}
	return lines
}

func writeSparse(sb *strings.Builder, label string, v map[int]float64) {
	fmt.Fprintf(sb, "%s n=%d", label, len(v))
	for _, line := range sparseLines(v) {
		sb.WriteString(" " + line)
	}
	sb.WriteByte('\n')
}

func writeSweep(sb *strings.Builder, label string, sw *partition.SweepResult) {
	fmt.Fprintf(sb, "%s phi=%016x prefix=%d set=%v\n", label,
		math.Float64bits(sw.Conductance), sw.Prefix, sw.Set)
}

// diffusionPins holds, per graph of testGraphs, the sha256 of
// parityFingerprint on the seed sets {0}, {n/2} and {max-degree node}.
var diffusionPins = map[string][3]string{
	"dumbbell": {
		"f1078bd91a18ad86f98326ff028e27aa49406aa2b5faa99f754a98225a58a803",
		"a07a3fb14b7079c8a330ba9f3b4fde6bb362fdf2d6381af6a3660f947b2565cf",
		"f1078bd91a18ad86f98326ff028e27aa49406aa2b5faa99f754a98225a58a803",
	},
	"erdos-renyi": {
		"12fc7a0f32f4712b1da3a117a96e71608b3b9c17328d0a5e61fd64a18b575aee",
		"8add34490bf60e3da0a7b4e5554d594d12384eabd8f24d5ed40aaf4d91536626",
		"52bee0e3e512c56204db08888fa143df56edb1380729fac76768a35720361389",
	},
	"grid": {
		"265fb4a0344fc45019479a58d622a909a5d98b472cd54e2068d5420b511bcb39",
		"49df2e81f08aa6737e553d79fb6f4a55a848f5ccea17a77ed35497e3f32779ee",
		"46ce2351d75085ea2ccf053778140b1b806deb52397c76c18af2c89a636bf8b6",
	},
	"ring-of-cliques": {
		"5bb95ad69889f6fd55e2f33447f79b958866e8ce97740580a4150e212d74d406",
		"3fe9e84a713a2a7af6311a467fe07691a968cc0197f986cba332e1448b1cceb8",
		"5bb95ad69889f6fd55e2f33447f79b958866e8ce97740580a4150e212d74d406",
	},
	"weighted-f32": {
		"832fbb5d21a2935a717e4cb387edff9f4f8a528d3dc22aeb154ac07bc6e785eb",
		"404f8031f27d7133b5d79b5535323b4a01cb507f3be43991064d98ff1c86deb2",
		"f42e40f80bd4921b3ed338f7d414ee3bc4f5b3d2ff8d4d87a9659c6d042b264d",
	},
	"weighted-f64": {
		"fc932a98f686d8087e2e3bbf105b80cd03caf97b0e48afc8f09bebf536ccedcd",
		"d4f783dcbdb1321fd7c69688665d0b178fd9d7f4cad835a315c162ad052cdedd",
		"35e9814ef02361146b328d5d6d5b26ac440a629ccd4a82e9aaca9e1a035c78cc",
	},
	"with-isolated": {
		"8651505bbd17b2bb5b1b71eb66abfe2cde41bd44d10b3ba9deb6ccdc050ce87c",
		"8b5758c09c5c6f37581d4d61a3911b754fc9752de71e3033831e2552c7ac8252",
		"b66405881ab1b33f229a79a04fe165059488e4b197ed5fa34f07acadee3bc2a4",
	},
}

// ncpPin is the sha256 of TestNCPFingerprintParity's profile fingerprint.
const ncpPin = "335e59baa8127f1eaf9f27126604bcbf60da43f3e690e3b7371ccd1aa5d4ae31"

func sha256Hex(s string) string { return fmt.Sprintf("%x", sha256.Sum256([]byte(s))) }

// TestDiffusionParityAcrossBackends: push/nibble/heat planes and sweep
// cuts are byte-identical on compact and mmap, and equal to the pins,
// for every graph in the grid, weighted and unweighted.
func TestDiffusionParityAcrossBackends(t *testing.T) {
	for name, hg := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			pins, ok := diffusionPins[name]
			if !ok {
				t.Fatalf("no pinned fingerprints for graph %q", name)
			}
			// Seeds: first node, a middle node, and the max-degree node.
			maxU := 0
			for u := 1; u < hg.N(); u++ {
				if hg.Degree(u) > hg.Degree(maxU) {
					maxU = u
				}
			}
			seedSets := [][]int{{0}, {hg.N() / 2}, {maxU}}
			backends := openBackends(t, hg)
			for i, seeds := range seedSets {
				want := parityFingerprint(t, backends[gstore.KindCompact], seeds)
				if sum := sha256Hex(want); sum != pins[i] {
					t.Fatalf("compact fingerprint on seeds %v has sha256 %s, pinned %s", seeds, sum, pins[i])
				}
				if got := parityFingerprint(t, backends[gstore.KindMmap], seeds); got != want {
					t.Fatalf("mmap diverges from compact on seeds %v:\n%s", seeds, firstDiff(want, got))
				}
			}
		})
	}
}

// onesWeighted serves a unit-weight graph as a compact backend with an
// explicit float64 weight array of ones: the same graph, forced through
// the weighted branch of every kernel loop.
func onesWeighted(t testing.TB, hg *graph.Graph) *gstore.Compact {
	t.Helper()
	ones := make([]float64, len(hg.RawAdj()))
	for i := range ones {
		ones[i] = 1
	}
	c, err := gstore.NewCompactFromParts(gstore.KindCompact, hg.RawRowPtr(), hg.RawAdj(), nil, ones, hg.Degrees(), nil)
	if err != nil {
		t.Fatalf("NewCompactFromParts: %v", err)
	}
	return c
}

// sweepFingerprint runs the workspace sweep over ws's output plane and
// checks it against the validated, iterator-based oracle
// partition.SweepCutOrdered over the map path's sweep order — Set, Prefix and
// Float64bits(Conductance) — returning a printable form of the result
// for the cross-backend comparison.
func sweepFingerprint(t *testing.T, label string, g gstore.Graph, ws *kernel.Workspace) string {
	t.Helper()
	order := sweepOrder(degreeNormalized(g, planeP(ws)))
	got, gotErr := workspaceSweepCut(g, ws)
	if len(order) == 0 {
		if gotErr == nil {
			t.Fatalf("%s: swept an empty order into %+v", label, got)
		}
		return "err=" + gotErr.Error()
	}
	want, wantErr := partition.SweepCutOrdered(g, order, len(order))
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: workspace sweep error %v, oracle %v", label, gotErr, wantErr)
	}
	if gotErr != nil {
		return "err=" + gotErr.Error()
	}
	if got.Prefix != want.Prefix || math.Float64bits(got.Conductance) != math.Float64bits(want.Conductance) ||
		fmt.Sprint(got.Set) != fmt.Sprint(want.Set) {
		t.Fatalf("%s: workspace sweep (k=%d φ=%016x %v) != oracle (k=%d φ=%016x %v)", label,
			got.Prefix, math.Float64bits(got.Conductance), got.Set,
			want.Prefix, math.Float64bits(want.Conductance), want.Set)
	}
	var sb strings.Builder
	writeSweep(&sb, "sweep", got)
	return sb.String()
}

// TestWorkspaceSweepMatchesOrderedOracle: the workspace-resident sweep
// (kernel sweep scratch, raw CSR rows, integer cut on unit rows, no
// order validation) returns exactly what partition.SweepCutOrdered
// returns for the same order, on every backend — including a unit graph
// forced through the weighted branch — and the same bytes on all of
// them. The shapes add the corners the scan has: exact value ties
// (star leaves), zero-degree nodes inside the support, a support that
// is the whole graph (the n-1 prefix clamp) and the two unsweepable
// supports with their error texts.
func TestWorkspaceSweepMatchesOrderedOracle(t *testing.T) {
	shapes := testGraphs(t)
	shapes["star"] = gen.Star(40)
	shapes["complete"] = gen.Complete(9)
	for name, hg := range shapes {
		t.Run(name, func(t *testing.T) {
			backends := map[string]gstore.Graph{}
			for kind, g := range openBackends(t, hg) {
				backends[string(kind)] = g
			}
			if hg.RawWeights32() == nil && hg.RawWeights64() == nil {
				backends["ones-weighted"] = onesWeighted(t, hg)
			}
			isolated := -1
			for u := 0; u < hg.N(); u++ {
				if hg.Degree(u) == 0 {
					isolated = u
				}
			}
			seedSets := [][]int{{0}, {hg.N() / 2}, {0, hg.N() - 1}}
			if isolated >= 0 {
				// An isolated seed keeps its mass in p with degree 0: it is
				// in the support but never in the order.
				seedSets = append(seedSets, []int{1, isolated}, []int{isolated})
			}
			ws := kernel.NewWorkspace(hg.N())
			for _, eps := range []float64{1e-3, 1e-6, 1e-12} {
				for _, seeds := range seedSets {
					label := fmt.Sprintf("eps=%g seeds=%v", eps, seeds)
					var want string
					for _, backend := range []string{"compact", "mmap", "ones-weighted"} {
						g, ok := backends[backend]
						if !ok {
							continue
						}
						if _, err := (kernel.PushACL{Alpha: 0.12, Eps: eps}).Diffuse(g, ws, seeds); err != nil {
							t.Fatalf("%s on %s: %v", label, backend, err)
						}
						got := sweepFingerprint(t, label+" on "+backend, g, ws)
						if backend == "compact" {
							want = got
						} else if got != want {
							t.Fatalf("%s: %s diverges from compact:\n%s\n%s", label, backend, got, want)
						}
						if len(seeds) == 1 && seeds[0] == isolated && got != "err=local: sweep support has only zero-degree nodes" {
							t.Fatalf("%s on %s: all-isolated support swept to %q", label, backend, got)
						}
					}
				}
			}
			ws.Reset()
			if got := sweepFingerprint(t, "empty", backends["compact"], ws); got != "err=local: sweep over empty vector" {
				t.Fatalf("empty plane swept to %q", got)
			}
		})
	}

	// The corners must actually be hit, not merely be possible.
	star := shapes["star"]
	ws := kernel.NewWorkspace(star.N())
	if _, err := (kernel.PushACL{Alpha: 0.12, Eps: 1e-6}).Diffuse(star, ws, []int{0}); err != nil {
		t.Fatal(err)
	}
	p := planeP(ws)
	if math.Float64bits(p[1]) != math.Float64bits(p[2]) || p[1] == 0 {
		t.Fatalf("star leaves do not tie exactly: p(1)=%v p(2)=%v", p[1], p[2])
	}
	full := shapes["complete"]
	ws = kernel.NewWorkspace(full.N())
	if _, err := (kernel.PushACL{Alpha: 0.12, Eps: 1e-12}).Diffuse(full, ws, []int{0}); err != nil {
		t.Fatal(err)
	}
	sw, err := workspaceSweepCut(full, ws)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(sweepOrder(degreeNormalized(full, planeP(ws)))); n != full.N() || sw.Prefix > full.N()-1 {
		t.Fatalf("complete graph: order has %d of %d nodes, prefix %d", n, full.N(), sw.Prefix)
	}
}

// TestNCPFingerprintParity: a full spectral NCP sweep — many PPR runs,
// sweep cuts, cluster collection, parallel workers — lands on the same
// profile, cluster for cluster and bit for bit, on both backends, and
// on the pinned one.
func TestNCPFingerprintParity(t *testing.T) {
	if testing.Short() {
		t.Skip("NCP parity sweep is not short")
	}
	hg := testGraphs(t)["erdos-renyi"]
	cfg := ncp.SpectralConfig{
		Seeds:    4,
		Alphas:   []float64{0.2, 0.05, 0.01},
		Workers:  3,
		BaseSeed: 41,
	}
	fingerprint := func(g gstore.Graph) string {
		prof, err := ncp.SpectralProfile(context.Background(), g, cfg, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatalf("SpectralProfile: %v", err)
		}
		var sb strings.Builder
		fmt.Fprintf(&sb, "method=%s clusters=%d\n", prof.Method, len(prof.Clusters))
		for i, c := range prof.Clusters {
			fmt.Fprintf(&sb, "%d %s phi=%016x nodes=%v\n", i, c.Method,
				math.Float64bits(c.Conductance), c.Nodes)
		}
		return sb.String()
	}
	backends := openBackends(t, hg)
	want := fingerprint(backends[gstore.KindCompact])
	if sum := sha256Hex(want); sum != ncpPin {
		t.Fatalf("compact NCP profile has sha256 %s, pinned %s", sum, ncpPin)
	}
	if got := fingerprint(backends[gstore.KindMmap]); got != want {
		t.Fatalf("NCP profile on mmap diverges from compact:\n%s", firstDiff(want, got))
	}
}

// firstDiff locates the first line where two fingerprints disagree.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n  want: %.200s\n  got:  %.200s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("lengths differ: want %d lines, got %d lines", len(wl), len(gl))
}
