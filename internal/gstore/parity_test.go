package gstore_test

import (
	"context"
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
// across the heap, compact and mmap backends. It is the executable form
// of the contract that lets graphd switch backends per graph (or per
// query, via ?backend=) without perturbing a single result: the compact
// form narrows weights only when lossless, degrees are carried
// bit-for-bit, and the kernel's monomorphized loops accumulate in the
// same order on all three array shapes.

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

	hk, err := local.HeatKernelLocal(g, seeds, 4.0, 2e-4)
	if err != nil {
		t.Fatalf("HeatKernelLocal: %v", err)
	}
	fmt.Fprintf(&sb, "heat terms=%d maxsupport=%d\n", hk.Terms, hk.MaxSupport)
	writeSparse(&sb, "heat.dist", hk.Dist)

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

// TestDiffusionParityAcrossBackends: push/nibble/heat planes and sweep
// cuts are byte-identical on heap, compact and mmap for every graph in
// the grid, weighted and unweighted.
func TestDiffusionParityAcrossBackends(t *testing.T) {
	for name, hg := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			// Seeds: first node, a middle node, and the max-degree node.
			maxU := 0
			for u := 1; u < hg.N(); u++ {
				if hg.Degree(u) > hg.Degree(maxU) {
					maxU = u
				}
			}
			seedSets := [][]int{{0}, {hg.N() / 2}, {maxU}}
			backends := openBackends(t, hg)
			for _, seeds := range seedSets {
				want := parityFingerprint(t, backends[gstore.KindHeap], seeds)
				for _, kind := range []gstore.Kind{gstore.KindCompact, gstore.KindMmap} {
					got := parityFingerprint(t, backends[kind], seeds)
					if got != want {
						t.Fatalf("%s diverges from heap on seeds %v:\n%s", kind, seeds,
							firstDiff(want, got))
					}
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
			if hg.UnitWeights() {
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
					for _, backend := range []string{"heap", "compact", "mmap", "ones-weighted"} {
						g, ok := backends[backend]
						if !ok {
							continue
						}
						if _, err := (kernel.PushACL{Alpha: 0.12, Eps: eps}).Diffuse(g, ws, seeds); err != nil {
							t.Fatalf("%s on %s: %v", label, backend, err)
						}
						got := sweepFingerprint(t, label+" on "+backend, g, ws)
						if backend == "heap" {
							want = got
						} else if got != want {
							t.Fatalf("%s: %s diverges from heap:\n%s\n%s", label, backend, got, want)
						}
						if len(seeds) == 1 && seeds[0] == isolated && got != "err=local: sweep support has only zero-degree nodes" {
							t.Fatalf("%s on %s: all-isolated support swept to %q", label, backend, got)
						}
					}
				}
			}
			ws.Reset()
			if got := sweepFingerprint(t, "empty", backends["heap"], ws); got != "err=local: sweep over empty vector" {
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
// profile, cluster for cluster and bit for bit, on every backend.
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
	want := fingerprint(backends[gstore.KindHeap])
	for _, kind := range []gstore.Kind{gstore.KindCompact, gstore.KindMmap} {
		if got := fingerprint(backends[kind]); got != want {
			t.Fatalf("NCP profile on %s diverges from heap:\n%s", kind, firstDiff(want, got))
		}
	}
}

// firstDiff locates the first line where two fingerprints disagree.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n  heap:  %.200s\n  other: %.200s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("lengths differ: heap %d lines, other %d lines", len(wl), len(gl))
}
