package gstore_test

import (
	"context"
	"crypto/sha256"
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
	"repro/internal/local"
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

// parityDiffusions runs each local diffusion on one backend and folds
// the complete output (support, value bits, counters, sweep cut) into a
// printable fingerprint. Equal fingerprints ⇒ byte-identical results.
func parityFingerprint(t *testing.T, g gstore.Graph, seeds []int) string {
	t.Helper()
	var sb strings.Builder

	pr, err := local.ApproxPageRank(g, seeds, 0.12, 2e-5)
	if err != nil {
		t.Fatalf("ApproxPageRank: %v", err)
	}
	fmt.Fprintf(&sb, "push pushes=%d work=%016x\n", pr.Pushes, math.Float64bits(pr.WorkVolume))
	writeSparse(&sb, "push.P", pr.P)
	writeSparse(&sb, "push.R", pr.R)
	sw, err := local.SweepCut(g, local.DegreeNormalized(g, pr.P))
	if err == nil {
		writeSweep(&sb, "push.sweep", sw)
	} else {
		fmt.Fprintf(&sb, "push.sweep err=%v\n", err)
	}

	nb, err := local.Nibble(g, seeds, 2e-4, 12)
	if err != nil {
		t.Fatalf("Nibble: %v", err)
	}
	fmt.Fprintf(&sb, "nibble steps=%d maxsupport=%d\n", nb.Steps, nb.MaxSupport)
	writeSparse(&sb, "nibble.dist", nb.Dist)
	if nb.Best != nil {
		writeSweep(&sb, "nibble.best", nb.Best)
	}

	ws := kernel.NewWorkspace(g.N())
	hk, err := kernel.HeatKernel{T: 4.0, Eps: 2e-4}.DiffuseContext(context.Background(), g, ws, seeds)
	if err != nil {
		t.Fatalf("HeatKernel: %v", err)
	}
	fmt.Fprintf(&sb, "heat terms=%d maxsupport=%d\n", hk.Terms, hk.MaxSupport)
	writeSparse(&sb, "heat.dist", local.FromWorkspaceP(ws))

	return sb.String()
}

func writeSparse(sb *strings.Builder, label string, v local.SparseVec) {
	keys := make([]int, 0, len(v))
	for u := range v {
		keys = append(keys, u)
	}
	sort.Ints(keys)
	fmt.Fprintf(sb, "%s n=%d", label, len(keys))
	for _, u := range keys {
		fmt.Fprintf(sb, " %d:%016x", u, math.Float64bits(v[u]))
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
		"886ed1e81eaa76ac2cf58bdf5abad6ad81f9bdfaf3a532c4c3f32b7136ecfa2f",
		"d0bd67da4b2d1127bc3a3f817ffbbf4ec78af0b6877f9f77e980466a6949a83a",
		"886ed1e81eaa76ac2cf58bdf5abad6ad81f9bdfaf3a532c4c3f32b7136ecfa2f",
	},
	"erdos-renyi": {
		"55f7d7dc4be9ef6ee7034e531766d50e01fec629ae4fa56dbda99c57351240dc",
		"e54bee3acf335eb115c34b916b2378070e73f24f11ee3912fc6248dc96c6b3e0",
		"15bebc080ab379b4f04ca566f14c011a21cec63ec88e9d8ae86493eff2690a74",
	},
	"grid": {
		"734ae4da2f74c4646485b18aefdc07e225a81d1161a537e2d23afbc82cd656cb",
		"b99d27f7a54ff5811fc66b1621092ecdf0a5fca830cfa45eaa9472069b353911",
		"f9bba594c5b9c9b481ca523ecca9a0111946a486574d805483225beeee667ce9",
	},
	"ring-of-cliques": {
		"20eea9d6126a44ceab07fdabe47eac65ef149e70c651cf08326e5f2eda022a2f",
		"adadf3a4004727af181b02994a1cec949d2f05fb05a43d719b2cd2ca3512d2ef",
		"20eea9d6126a44ceab07fdabe47eac65ef149e70c651cf08326e5f2eda022a2f",
	},
	"weighted-f32": {
		"e8d7b773cf86d566feb0653e0a2bf1cc78c36bf9d092ab91c5e1b622d84b8e2c",
		"7817c926b3de65cb062912d17dc523a2edafa58fa5241dc711ce42efb228a4c2",
		"f1da5f569266b04e77c225801f063ace88545c87edb4d13eb0c78f075f77661a",
	},
	"weighted-f64": {
		"13a2bbffb47fc1d3927ca5f3a8ffb4487bf4e002ad331a56913f2ab1a3b27a94",
		"97094b92bee99b833d0d4d53806aea080fea8d0412325a95cf361772d7f04b13",
		"2f8b59245df945d2f03676bf6259df5572a981be1e206d55b2ad47ac0469ca74",
	},
	"with-isolated": {
		"76d9c5f78a73aaf8549bfd18d7794ddf9f9d8b0aebef9df1de07e03e23dca5a5",
		"4552a6e853cc42cf097ebcec48048e65cd561732f711fe4521e1e8a85dbe061b",
		"f83f291cf016c9db3c15d343c5b7334fde8846ca47153c6ac44f4491878d5e70",
	},
}

// ncpPin is the sha256 of TestNCPFingerprintParity's profile fingerprint.
const ncpPin = "d7c465390b63efb4c3b412a437a5661ccf4eea545056cfd9c81e1fa603b9e3cf"

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
	rowPtrI, adjI, wts := hg.CSR()
	rowPtr := make([]int64, len(rowPtrI))
	for i, v := range rowPtrI {
		rowPtr[i] = int64(v)
	}
	adj := make([]uint32, len(adjI))
	for i, v := range adjI {
		adj[i] = uint32(v)
	}
	c, err := gstore.NewCompactFromParts(gstore.KindCompact, rowPtr, adj, nil,
		append([]float64(nil), wts...), append([]float64(nil), hg.Degrees()...), nil)
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
	order := local.SweepOrder(local.DegreeNormalized(g, local.FromWorkspaceP(ws)))
	got, gotErr := local.WorkspaceSweepCut(g, ws)
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
			if _, _, w := hg.CSR(); gstore.DetectWeightForm(w) == gstore.WeightsUnit {
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
	star := gstore.Wrap(shapes["star"])
	ws := kernel.NewWorkspace(star.N())
	if _, err := (kernel.PushACL{Alpha: 0.12, Eps: 1e-6}).Diffuse(star, ws, []int{0}); err != nil {
		t.Fatal(err)
	}
	p := local.FromWorkspaceP(ws)
	if math.Float64bits(p[1]) != math.Float64bits(p[2]) || p[1] == 0 {
		t.Fatalf("star leaves do not tie exactly: p(1)=%v p(2)=%v", p[1], p[2])
	}
	full := gstore.Wrap(shapes["complete"])
	ws = kernel.NewWorkspace(full.N())
	if _, err := (kernel.PushACL{Alpha: 0.12, Eps: 1e-12}).Diffuse(full, ws, []int{0}); err != nil {
		t.Fatal(err)
	}
	sw, err := local.WorkspaceSweepCut(full, ws)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(local.SweepOrder(local.DegreeNormalized(full, local.FromWorkspaceP(ws)))); n != full.N() || sw.Prefix > full.N()-1 {
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
		prof, err := ncp.SpectralProfileOn(context.Background(), g, cfg, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatalf("SpectralProfileOn: %v", err)
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
