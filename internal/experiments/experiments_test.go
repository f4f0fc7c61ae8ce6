package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/diffusion"
	"repro/internal/gen"
	"repro/internal/gstore"
	"repro/internal/regsdp"
	"repro/internal/spectral"
	"repro/internal/vec"
)

func TestTableString(t *testing.T) {
	tbl := &Table{
		Title:   "demo",
		Columns: []string{"a", "bb"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Notes:   []string{"a note"},
	}
	s := tbl.String()
	if !strings.Contains(s, "demo") || !strings.Contains(s, "333") || !strings.Contains(s, "note: a note") {
		t.Fatalf("table render:\n%s", s)
	}
}

func TestSec31EquivalenceHolds(t *testing.T) {
	results, err := Sec31Equivalence(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d graphs, want 3", len(results))
	}
	for _, res := range results {
		if len(res.Rows) != 9 {
			t.Fatalf("%s: %d rows, want 9", res.GraphName, len(res.Rows))
		}
		for _, row := range res.Rows {
			if row.WeightDiff > 1e-12 {
				t.Errorf("%s %s %s: weight diff %v too large — equivalence broken",
					res.GraphName, row.Dynamics, row.Param, row.WeightDiff)
			}
			// Regularized optimum can never beat λ₂ on the trace term.
			if row.TraceObj < row.Lambda2-1e-9 {
				t.Errorf("%s %s: Tr(𝓛X)=%v below λ₂=%v (impossible)",
					res.GraphName, row.Dynamics, row.TraceObj, row.Lambda2)
			}
		}
		_ = res.Table().String()
	}
}

// The §3.1 claim checked on the code graphd's diffuse endpoint runs:
// diffusion.HeatKernel / PageRank / LazyWalk from a one-node seed s, at
// every (dynamics, parameter) pair of the §3.1 table, output exactly the
// optimum X of the matching regularized SDP applied to the seed. In the
// SDP's symmetric coordinates a diffusion output x is D^{-1/2}x with the
// trivial direction D^{1/2}1 projected out, so up to scale it must equal
// X·D^{-1/2}s.
func TestSec31ServedDiffusionsSolveTheSDP(t *testing.T) {
	graphs, err := sec31Graphs(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range graphs {
		s, err := regsdp.NewSpectrum(tc.g)
		if err != nil {
			t.Fatal(err)
		}
		n := tc.g.N()
		deg := tc.g.Degrees()
		trivial := spectral.TrivialEigvec(tc.g)
		served := gstore.Wrap(tc.g)
		for _, src := range []int{0, n - 1} {
			seed, err := diffusion.SeedVector(n, []int{src})
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range sec31Cases {
				var x []float64
				switch c.reg {
				case regsdp.Entropy:
					x, err = diffusion.HeatKernel(served, seed, c.param, diffusion.HeatKernelOptions{})
				case regsdp.LogDet:
					x, err = diffusion.PageRank(served, seed, c.param, diffusion.PageRankOptions{})
				default:
					x, err = diffusion.LazyWalk(served, seed, c.param, c.k)
				}
				if err != nil {
					t.Fatal(err)
				}
				_, sdp, _, err := c.solve(s)
				if err != nil {
					t.Fatal(err)
				}
				got := vec.ScaleByDegree(x, deg, -0.5)
				vec.ProjectOut(got, trivial)
				vec.Normalize(got)
				want := sdp.Matrix().MulVec(vec.ScaleByDegree(seed, deg, -0.5))
				vec.Normalize(want)
				if gap := vec.MaxAbsDiff(got, want); gap > 1e-9 {
					t.Errorf("%s seed %d %s %s: served diffusion is %.3g from the SDP optimum",
						tc.name, src, c.dynamics, c.paramString(), gap)
				}
			}
		}
	}
}

func TestSec31EarlyStopping(t *testing.T) {
	rows, err := Sec31EarlyStopping(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 5 {
		t.Fatalf("too few rows: %d", len(rows))
	}
	// Rayleigh quotient decreases with more steps; seed alignment
	// decreases too.
	for i := 1; i < len(rows); i++ {
		if rows[i].Rayleigh > rows[i-1].Rayleigh+1e-9 {
			t.Errorf("Rayleigh not monotone at k=%d: %v > %v",
				rows[i].Steps, rows[i].Rayleigh, rows[i-1].Rayleigh)
		}
	}
	first, last := rows[0], rows[len(rows)-1]
	if first.SeedAlign < 0.9 {
		t.Errorf("k=0 should be seed-aligned, got %v", first.SeedAlign)
	}
	if last.ExactGap > 1e-6 {
		t.Errorf("k=1000 gap to λ₂ = %v, want ~0", last.ExactGap)
	}
	_ = Sec31EarlyStopTable(rows).String()
}

func TestBayesRiskRegularizationHelps(t *testing.T) {
	// The §3 statistical claim, the headline of reference [36]: under
	// edge-sampling noise, a finite η (a genuinely truncated diffusion)
	// beats the exact Fiedler estimator. A ring of cliques has a clean
	// population Fiedler direction, and at q=0.7 the sample's exact
	// eigenvector rotates a lot while the regularized average does not.
	population := gen.RingOfCliques(6, 6)
	rng := rand.New(rand.NewSource(7))
	etas := []float64{0.5, 1, 2, 5, 10, 50, 200, 1000}
	res, err := regsdp.BayesRisk(population, 0.7, etas, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials != 8 {
		t.Errorf("trials = %d, want 8", res.Trials)
	}
	if res.BestRisk >= res.UnregularizedRisk {
		t.Errorf("best regularized risk %.4f did not beat unregularized %.4f",
			res.BestRisk, res.UnregularizedRisk)
	}
	if res.Improvement() <= 0 {
		t.Errorf("improvement = %g, want positive", res.Improvement())
	}
	// η→∞ must approach the unregularized estimator: the last, largest η
	// should be close to the unregularized risk, and markedly worse than
	// the best.
	last := res.Curve[len(res.Curve)-1].Risk
	if math.Abs(last-res.UnregularizedRisk) > 0.25*res.UnregularizedRisk {
		t.Errorf("eta=1000 risk %.4f should approximate unregularized %.4f",
			last, res.UnregularizedRisk)
	}
}

func TestSec32CheegerSaturation(t *testing.T) {
	rows, err := Sec32CheegerSaturation(1)
	if err != nil {
		t.Fatal(err)
	}
	var cycleRatios, expanderRatios []float64
	for _, r := range rows {
		if r.PhiSweep > r.CheegerUp+1e-9 {
			t.Errorf("%s n=%d: sweep %v exceeds Cheeger bound %v", r.Family, r.N, r.PhiSweep, r.CheegerUp)
		}
		switch r.Family {
		case "cycle":
			cycleRatios = append(cycleRatios, r.RatioToLow)
		case "6-regular":
			expanderRatios = append(expanderRatios, r.RatioToLow)
		}
	}
	// Cycles: ratio grows with n (quadratic factor saturates).
	if len(cycleRatios) < 3 || cycleRatios[len(cycleRatios)-1] < 2*cycleRatios[0] {
		t.Errorf("cycle ratios do not grow: %v", cycleRatios)
	}
	// Expanders: ratio stays bounded (well below the largest cycle ratio).
	for _, er := range expanderRatios {
		if er > cycleRatios[len(cycleRatios)-1]/2 {
			t.Errorf("expander ratio %v not clearly smaller than cycle ratio %v",
				er, cycleRatios[len(cycleRatios)-1])
		}
	}
	_ = Sec32CheegerTable(rows).String()
}

func TestSec32QualityNiceness(t *testing.T) {
	row, err := Sec32QualityNiceness(3)
	if err != nil {
		t.Fatal(err)
	}
	if row.SpectralCount == 0 || row.FlowCounts == 0 {
		t.Fatal("profiles empty")
	}
	for name, v := range map[string]float64{
		"spectral φ": row.SpectralPhi, "flow φ": row.FlowPhi,
		"spectral path": row.SpectralPath, "flow path": row.FlowPath,
	} {
		if math.IsNaN(v) || v <= 0 {
			t.Errorf("%s = %v, want positive", name, v)
		}
	}
	// The paper's reading of the tradeoff: the flow method wins the
	// conductance objective, the spectral method wins niceness.
	if row.FlowPhi >= row.SpectralPhi {
		t.Errorf("flow φ %.4f should beat spectral φ %.4f", row.FlowPhi, row.SpectralPhi)
	}
	if row.SpectralPath >= row.FlowPath {
		t.Errorf("spectral path %.3f should beat flow path %.3f", row.SpectralPath, row.FlowPath)
	}
	_ = row.Table().String()
}

func TestSec33LocalRuntime(t *testing.T) {
	rows, err := Sec33LocalRuntime(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	first, last := rows[0], rows[len(rows)-1]
	if last.N < 9*first.N {
		t.Fatalf("size sweep too narrow: %d to %d", first.N, last.N)
	}
	// Push work must not scale with n: allow 4× drift over a 30× n range.
	if last.WorkVolume > 4*first.WorkVolume+1000 {
		t.Errorf("push work grew with n: %v -> %v", first.WorkVolume, last.WorkVolume)
	}
	// ACL bound.
	for _, r := range rows {
		if r.WorkVolume > 2.0/(0.1*1e-4) {
			t.Errorf("n=%d: work volume %v above theoretical bound", r.N, r.WorkVolume)
		}
		if r.MOVTouched != r.N {
			t.Errorf("MOV touched %d, want all %d", r.MOVTouched, r.N)
		}
	}
	_ = Sec33LocalityTable(rows).String()
}

func TestSec33LocalCheeger(t *testing.T) {
	rows, err := Sec33LocalCheeger(1)
	if err != nil {
		t.Fatal(err)
	}
	good := 0
	for _, r := range rows {
		if r.PhiLocal <= 3*r.PhiPlanted && r.Jaccard > 0.5 {
			good++
		}
	}
	if good < len(rows)*2/3 {
		t.Errorf("only %d/%d seeds recovered Cheeger-like clusters", good, len(rows))
	}
	_ = Sec33CheegerTable(rows).String()
}

func TestSec33MOVvsPush(t *testing.T) {
	rows, err := Sec33MOVvsPush(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Correlation < 0.999 {
			t.Errorf("γ=%v: MOV vs resolvent correlation %v, want ≈1", r.Gamma, r.Correlation)
		}
	}
	// Locality decreases (seed corr falls) as γ increases toward λ₂.
	for i := 1; i < len(rows); i++ {
		if rows[i].SeedCorr > rows[i-1].SeedCorr+1e-9 {
			t.Errorf("seed correlation not decreasing in γ: %v then %v",
				rows[i-1].SeedCorr, rows[i].SeedCorr)
		}
	}
	_ = Sec33MOVTable(rows).String()
}

func TestSec33SeedNotInCluster(t *testing.T) {
	res, err := Sec33SeedNotInCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.SeedInside {
		t.Error("construction failed to exhibit the seed-not-in-cluster phenomenon")
	}
	if res.ClusterSize < 3 {
		t.Errorf("degenerate cluster of size %d", res.ClusterSize)
	}
	if math.IsInf(res.Phi, 0) {
		t.Error("invalid conductance")
	}
	_ = res.Table().String()
}

// fig1Pins are the sha256 of the three TSVs `experiments -only fig1 -n
// 1200 -tsv` writes (seed 1, every other knob at its default).
var fig1Pins = map[string]string{
	"1a": "bacaac6d1e7b4fd41814db5030aeb294f4a273f6d673aa9924d44022edf8e316",
	"1b": "2900f61f6ed467936482cab3c42823922a25bcb0f34fe8365a6bebeb511be70b",
	"1c": "549555ff16ba20d620b499397b92521a4e7e1d8a4913f1f235a72554dadd66b7",
}

// TestFig1Small runs the reproduction's pinned configuration: the bytes
// of each panel's TSV are pinned, and the figure's shape is checked.
func TestFig1Small(t *testing.T) {
	res, err := Fig1(Fig1Config{N: 1200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, panel := range Panels {
		h := sha256.New()
		if err := WriteTSV(h, res, panel.Sel); err != nil {
			t.Fatal(err)
		}
		if got, want := hex.EncodeToString(h.Sum(nil)), fig1Pins[panel.Name]; got != want {
			t.Errorf("TestFig1Small: panel %s TSV sha256 changed:\n  old %s\n  new %s", panel.Name, want, got)
		}
	}
	if len(res.Spectral) == 0 || len(res.Flow) == 0 {
		t.Fatal("empty scatter series")
	}
	if math.IsNaN(res.MedianPhiSpectral) || math.IsNaN(res.MedianPhiFlow) {
		t.Fatal("median conductance undefined")
	}
	// Panel (a) headline: flow wins (or at worst ties) the size-resolved
	// minimum-conductance envelope.
	if !math.IsNaN(res.EnvelopeRatioGeoMean) && res.EnvelopeRatioGeoMean > 1.02 {
		t.Errorf("flow conductance envelope %.3f× spectral — Fig 1(a) shape broken",
			res.EnvelopeRatioGeoMean)
	}
	// Panel (b) headline: spectral clusters are typically "nicer" (lower
	// median path) in at least a plurality of common size buckets.
	if !math.IsNaN(res.FracSpectralWinsNicePth) && res.FracSpectralWinsNicePth < 0.4 {
		t.Errorf("spectral wins only %.2f of niceness buckets — Fig 1(b) shape broken",
			res.FracSpectralWinsNicePth)
	}
	for _, tb := range []*Table{res.Fig1aTable(), res.Fig1bTable(), res.Fig1cTable()} {
		if len(tb.Rows) == 0 {
			t.Error("empty panel table")
		}
		_ = tb.String()
	}
}

func TestWriteTSV(t *testing.T) {
	res := &Fig1Result{
		Spectral: []ScatterPoint{{Size: 40, Conductance: 0.1}, {Size: 10, Conductance: 0.3}, {Size: 20, Conductance: 0.2}},
		Flow:     []ScatterPoint{{Size: 1000000, Conductance: 0.05}, {Size: 30, Conductance: 0.15}},
	}
	var b strings.Builder
	if err := WriteTSV(&b, res, func(p ScatterPoint) float64 { return p.Conductance }); err != nil {
		t.Fatal(err)
	}
	want := "series\tx\ty\n" +
		"spectral (LocalSpectral)\t10\t0.3\n" +
		"spectral (LocalSpectral)\t20\t0.2\n" +
		"spectral (LocalSpectral)\t40\t0.1\n" +
		"flow (Metis+MQI)\t30\t0.15\n" +
		"flow (Metis+MQI)\t1e+06\t0.05\n"
	if got := b.String(); got != want {
		t.Errorf("writeTSV:\n%s\nwant:\n%s", got, want)
	}
	if res.Spectral[0].Size != 40 {
		t.Error("writeTSV reordered the caller's points")
	}
}
