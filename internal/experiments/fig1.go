package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/gen"
	"repro/internal/ncp"
)

// Fig1Config parameterizes the Figure 1 reproduction. The zero value
// reproduces the default experiment: a ~20k-node forest-fire network
// standing in for the paper's AtP-DBLP co-authorship network.
type Fig1Config struct {
	N    int   // network size (default 20000)
	Seed int64 // RNG seed (default 1)
}

// The experiment's fixed knobs: the forest-fire burning probability and
// the cluster sizes evaluated for niceness (Fig. 1's 10^1–10^4 decade
// span scaled to the synthetic network). Both profiles run at their
// engines' defaults (20 spectral seeds per scale).
const (
	fig1FwdProb = 0.37
	fig1MinSize = 8
	fig1MaxSize = 2048
)

// ScatterPoint is one cluster in the Fig. 1 scatter plots: its size
// (X-axis of all panels), conductance (Y of 1a), average shortest path
// (Y of 1b) and external/internal conductance ratio (Y of 1c).
type ScatterPoint struct {
	Size        int
	Conductance float64
	AvgPath     float64
	ExtIntRatio float64
}

// Fig1Result carries both methods' scatter series plus the aggregate
// comparison that summarizes the paper's reading of the figure.
type Fig1Result struct {
	Spectral []ScatterPoint // blue: LocalSpectral
	Flow     []ScatterPoint // red: Metis+MQI
	// Aggregates over the evaluated size range (medians).
	MedianPhiSpectral, MedianPhiFlow         float64
	MedianPathSpectral, MedianPathFlow       float64
	MedianRatioSpectral, MedianRatioFlow     float64
	FracFlowWinsPhi, FracSpectralWinsNicePth float64
	// EnvelopeRatioGeoMean is the geometric mean over common size buckets
	// of min-φ(flow)/min-φ(spectral): < 1 when flow wins the conductance
	// envelope, the Fig. 1(a) claim.
	EnvelopeRatioGeoMean float64
}

// Fig1 reproduces Figure 1: sample clusters at all scales with the
// spectral (LocalSpectral) and flow-based (Metis+MQI) methods on a
// forest-fire network, evaluate size-resolved conductance and the two
// niceness measures, and aggregate. The paper's claim: flow generally
// wins on conductance (panel a) while spectral yields nicer clusters
// (panels b and c).
func Fig1(cfg Fig1Config) (*Fig1Result, error) {
	if cfg.N <= 0 {
		cfg.N = 20000
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g, err := gen.ForestFire(gen.ForestFireConfig{N: cfg.N, FwdProb: fig1FwdProb, Ambs: 1}, rng)
	if err != nil {
		return nil, fmt.Errorf("experiments: fig1 generator: %w", err)
	}
	spProf, err := ncp.SpectralProfile(g, ncp.SpectralConfig{}, rng)
	if err != nil {
		return nil, fmt.Errorf("experiments: fig1 spectral profile: %w", err)
	}
	flProf, err := ncp.FlowProfile(g, ncp.FlowConfig{}, rng)
	if err != nil {
		return nil, fmt.Errorf("experiments: fig1 flow profile: %w", err)
	}
	// 16 evaluated clusters per size bucket per method keeps the scatter
	// informative while bounding the BFS-heavy niceness evaluation.
	spM, err := ncp.EvaluateProfileCapped(g, spProf, fig1MinSize, fig1MaxSize, 16)
	if err != nil {
		return nil, fmt.Errorf("experiments: fig1 spectral measures: %w", err)
	}
	flM, err := ncp.EvaluateProfileCapped(g, flProf, fig1MinSize, fig1MaxSize, 16)
	if err != nil {
		return nil, fmt.Errorf("experiments: fig1 flow measures: %w", err)
	}
	res := &Fig1Result{}
	for _, m := range spM {
		res.Spectral = append(res.Spectral, toPoint(m))
	}
	for _, m := range flM {
		res.Flow = append(res.Flow, toPoint(m))
	}
	col := func(pts []ScatterPoint, sel func(ScatterPoint) float64) []float64 {
		vals := make([]float64, len(pts))
		for i, p := range pts {
			vals[i] = sel(p)
		}
		return vals
	}
	res.MedianPhiSpectral = median(col(res.Spectral, func(p ScatterPoint) float64 { return p.Conductance }))
	res.MedianPhiFlow = median(col(res.Flow, func(p ScatterPoint) float64 { return p.Conductance }))
	res.MedianPathSpectral = median(col(res.Spectral, func(p ScatterPoint) float64 { return p.AvgPath }))
	res.MedianPathFlow = median(col(res.Flow, func(p ScatterPoint) float64 { return p.AvgPath }))
	res.MedianRatioSpectral = median(col(res.Spectral, func(p ScatterPoint) float64 { return p.ExtIntRatio }))
	res.MedianRatioFlow = median(col(res.Flow, func(p ScatterPoint) float64 { return p.ExtIntRatio }))
	res.FracFlowWinsPhi, res.FracSpectralWinsNicePth = bucketWinRates(res.Spectral, res.Flow)
	res.EnvelopeRatioGeoMean = envelopeRatio(res.Spectral, res.Flow)
	return res, nil
}

// envelopeRatio returns the geometric mean of flow-min/spectral-min
// conductance over common power-of-two size buckets.
func envelopeRatio(sp, fl []ScatterPoint) float64 {
	minPhi := func(pts []ScatterPoint) map[int]float64 {
		m := map[int]float64{}
		for _, p := range pts {
			b := 0
			for s := p.Size; s > 1; s >>= 1 {
				b++
			}
			if cur, ok := m[b]; !ok || p.Conductance < cur {
				m[b] = p.Conductance
			}
		}
		return m
	}
	sb, fb := minPhi(sp), minPhi(fl)
	var logSum float64
	var count int
	for b, s := range sb {
		if ff, ok := fb[b]; ok && s > 0 && ff > 0 {
			logSum += math.Log(ff / s)
			count++
		}
	}
	if count == 0 {
		return math.NaN()
	}
	return math.Exp(logSum / float64(count))
}

func toPoint(m *ncp.Measures) ScatterPoint {
	return ScatterPoint{
		Size:        m.Size,
		Conductance: m.Conductance,
		AvgPath:     m.AvgPathLen,
		ExtIntRatio: m.ExtIntRatio,
	}
}

// median is the median of xs, NaN values skipped and +Inf kept (a
// disconnected cluster is maximally un-nice and must drag the median):
// the middle value, or the mean of the two middle values. It is NaN when
// no value is left. xs is not reordered.
func median(xs []float64) float64 {
	vals := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			vals = append(vals, x)
		}
	}
	if len(vals) == 0 {
		return math.NaN()
	}
	sort.Float64s(vals)
	mid := len(vals) / 2
	if len(vals)%2 == 1 {
		return vals[mid]
	}
	return (vals[mid-1] + vals[mid]) / 2
}

// bucketWinRates compares the two methods bucket-by-bucket over
// power-of-two size buckets where both methods produced clusters. Panel
// (a) is an envelope question, so it compares per-bucket *minimum*
// conductance; panels (b) and (c) are typical-cluster questions, so they
// compare per-bucket *medians* of the niceness values, with +Inf values
// (disconnected clusters) included so that a method whose typical cluster
// is disconnected pays for it.
func bucketWinRates(sp, fl []ScatterPoint) (flowWinsPhi, spectralWinsPath float64) {
	type agg struct {
		minPhi float64
		paths  []float64
	}
	bucket := func(pts []ScatterPoint) map[int]*agg {
		m := map[int]*agg{}
		for _, p := range pts {
			b := bucketOfSize(p.Size)
			cur := m[b]
			if cur == nil {
				cur = &agg{minPhi: math.Inf(1)}
				m[b] = cur
			}
			if p.Conductance < cur.minPhi {
				cur.minPhi = p.Conductance
			}
			if !math.IsNaN(p.AvgPath) {
				// +Inf (disconnected cluster) is kept: it is maximally
				// un-nice and must drag the median, not vanish from it.
				cur.paths = append(cur.paths, p.AvgPath)
			}
		}
		return m
	}
	sb, fb := bucket(sp), bucket(fl)
	var both, flowPhi, pathBuckets, spPath int
	for b, s := range sb {
		ff, ok := fb[b]
		if !ok {
			continue
		}
		both++
		if ff.minPhi < s.minPhi {
			flowPhi++
		}
		spMed, flMed := median(s.paths), median(ff.paths)
		switch spOK, flOK := !math.IsNaN(spMed), !math.IsNaN(flMed); {
		case spOK && flOK:
			pathBuckets++
			if spMed < flMed {
				spPath++
			}
		case spOK && !flOK: // flow has only disconnected clusters here
			pathBuckets++
			spPath++
		case !spOK && flOK:
			pathBuckets++
		}
	}
	if both == 0 {
		return math.NaN(), math.NaN()
	}
	flowWinsPhi = float64(flowPhi) / float64(both)
	if pathBuckets == 0 {
		return flowWinsPhi, math.NaN()
	}
	return flowWinsPhi, float64(spPath) / float64(pathBuckets)
}

func bucketOfSize(size int) int {
	b := 0
	for s := size; s > 1; s >>= 1 {
		b++
	}
	return b
}

// Panels are Figure 1's three size-resolved panels, by file suffix;
// Sel picks a scatter point's value on the panel's Y axis.
var Panels = []struct {
	Name string
	Sel  func(ScatterPoint) float64
}{
	{"1a", func(p ScatterPoint) float64 { return p.Conductance }},
	{"1b", func(p ScatterPoint) float64 { return p.AvgPath }},
	{"1c", func(p ScatterPoint) float64 { return p.ExtIntRatio }},
}

// WriteTSV writes one panel as tab-separated (series, cluster size,
// value) rows, the spectral series first, each sorted by size: the
// machine-readable form of the panel for external plotting.
func WriteTSV(w io.Writer, res *Fig1Result, sel func(ScatterPoint) float64) error {
	if _, err := fmt.Fprintln(w, "series\tx\ty"); err != nil {
		return err
	}
	for _, s := range []struct {
		name string
		pts  []ScatterPoint
	}{{"spectral (LocalSpectral)", res.Spectral}, {"flow (Metis+MQI)", res.Flow}} {
		pts := slices.Clone(s.pts)
		sort.Slice(pts, func(a, b int) bool { return pts[a].Size < pts[b].Size })
		for _, p := range pts {
			if _, err := fmt.Fprintf(w, "%s\t%g\t%g\n", s.name, float64(p.Size), sel(p)); err != nil {
				return err
			}
		}
	}
	return nil
}

// Fig1aTable renders panel (a): size-resolved minimum conductance per
// bucket for both methods.
func (r *Fig1Result) Fig1aTable() *Table {
	return r.panelTable("Figure 1(a): size-resolved conductance (lower = better objective)",
		"min φ", func(p ScatterPoint) float64 { return p.Conductance })
}

// Fig1bTable renders panel (b): average shortest-path niceness, as
// per-bucket medians (disconnected clusters count as +Inf).
func (r *Fig1Result) Fig1bTable() *Table {
	return r.panelTableStat("Figure 1(b): average shortest-path length inside cluster (lower = nicer)",
		"median avg-path", func(p ScatterPoint) float64 { return p.AvgPath }, true)
}

// Fig1cTable renders panel (c): external/internal conductance ratio, as
// per-bucket medians (disconnected clusters count as +Inf).
func (r *Fig1Result) Fig1cTable() *Table {
	return r.panelTableStat("Figure 1(c): external/internal conductance ratio (lower = nicer)",
		"median ext/int", func(p ScatterPoint) float64 { return p.ExtIntRatio }, true)
}

func (r *Fig1Result) panelTable(title, metric string, sel func(ScatterPoint) float64) *Table {
	return r.panelTableStat(title, metric, sel, false)
}

// panelTableStat renders a per-bucket panel. useMedian selects the
// per-bucket statistic: minimum (the envelope reading of panel a) or
// median (the typical-cluster reading of panels b and c; +Inf values from
// disconnected clusters are included and drag the median).
func (r *Fig1Result) panelTableStat(title, metric string, sel func(ScatterPoint) float64, useMedian bool) *Table {
	t := &Table{
		Title:   title,
		Columns: []string{"size bucket", "spectral " + metric, "flow " + metric},
	}
	type pool struct{ sp, fl []float64 }
	buckets := map[int]*pool{}
	add := func(pts []ScatterPoint, isSp bool) {
		for _, p := range pts {
			b := bucketOfSize(p.Size)
			pr, ok := buckets[b]
			if !ok {
				pr = &pool{}
				buckets[b] = pr
			}
			v := sel(p)
			if math.IsNaN(v) {
				continue
			}
			if isSp {
				pr.sp = append(pr.sp, v)
			} else {
				pr.fl = append(pr.fl, v)
			}
		}
	}
	add(r.Spectral, true)
	add(r.Flow, false)
	stat := func(xs []float64) float64 {
		if len(xs) == 0 {
			return math.NaN()
		}
		if useMedian {
			return median(xs)
		}
		min := xs[0]
		for _, x := range xs[1:] {
			if x < min {
				min = x
			}
		}
		return min
	}
	var keys []int
	for b := range buckets {
		keys = append(keys, b)
	}
	sort.Ints(keys)
	for _, b := range keys {
		pr := buckets[b]
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("[%d,%d)", 1<<b, 1<<(b+1)), f(stat(pr.sp)), f(stat(pr.fl)),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("medians — spectral: φ=%s path=%s ratio=%s | flow: φ=%s path=%s ratio=%s",
			f(r.MedianPhiSpectral), f(r.MedianPathSpectral), f(r.MedianRatioSpectral),
			f(r.MedianPhiFlow), f(r.MedianPathFlow), f(r.MedianRatioFlow)),
		fmt.Sprintf("flow wins conductance in %.0f%% of common buckets; spectral wins avg-path in %.0f%%",
			100*r.FracFlowWinsPhi, 100*r.FracSpectralWinsNicePth))
	return t
}
