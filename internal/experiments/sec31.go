package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mat"
	"repro/internal/regsdp"
	"repro/internal/spectral"
	"repro/internal/vec"
)

// Sec31Row is one verified instance of the §3.1 equivalence: one
// diffusion dynamics at one aggressiveness setting against its
// regularized SDP.
type Sec31Row struct {
	Dynamics    string  // "heat-kernel" | "pagerank" | "lazy-walk"
	Regularizer string  // matching G(·)
	Param       string  // the aggressiveness parameter value
	Eta         float64 // the implied SDP regularization strength
	WeightDiff  float64 // ℓ∞ distance between diffusion operator and SDP optimum
	TraceObj    float64 // Tr(𝓛X) of the shared solution
	Lambda2     float64 // λ₂ for reference (the unregularized optimum value)
}

// Sec31Result is the equivalence table for one graph.
type Sec31Result struct {
	GraphName string
	N, M      int
	Rows      []Sec31Row
}

// Sec31Equivalence verifies, on a family of small graphs, that each of
// the three diffusion dynamics computes exactly the optimum of its
// regularized SDP (the Mahoney–Orecchia correspondence quoted by §3.1).
// WeightDiff ~ 1e-12 is the measured column of its table
// (TestSec31EquivalenceHolds asserts it).
func Sec31Equivalence(seed int64) ([]*Sec31Result, error) {
	graphs, err := sec31Graphs(seed)
	if err != nil {
		return nil, err
	}
	var out []*Sec31Result
	for _, tc := range graphs {
		s, err := regsdp.NewSpectrum(tc.g)
		if err != nil {
			return nil, fmt.Errorf("experiments: sec3.1 spectrum for %s: %w", tc.name, err)
		}
		lam2 := s.NontrivialValues()[0]
		res := &Sec31Result{GraphName: tc.name, N: tc.g.N(), M: tc.g.M()}
		for _, c := range sec31Cases {
			op, sdp, eta, err := c.solve(s)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, Sec31Row{
				Dynamics: c.dynamics, Regularizer: c.reg.String(),
				Param: c.paramString(), Eta: eta,
				WeightDiff: regsdp.MaxWeightDiff(op, sdp),
				TraceObj:   sdp.TraceObjective(), Lambda2: lam2,
			})
		}
		out = append(out, res)
	}
	return out, nil
}

type namedGraph struct {
	name string
	g    *graph.Graph
}

// sec31Graphs returns the three connected graphs of the §3.1 table.
func sec31Graphs(seed int64) ([]namedGraph, error) {
	rng := rand.New(rand.NewSource(seed))
	er, err := connectedER(rng, 40, 0.15)
	if err != nil {
		return nil, err
	}
	return []namedGraph{
		{"dumbbell(8,2)", gen.Dumbbell(8, 2)},
		{"ring-of-cliques(4,6)", gen.RingOfCliques(4, 6)},
		{"erdos-renyi(40,0.15)", er},
	}, nil
}

// sec31Case is one (dynamics, aggressiveness) pair of the §3.1 table.
type sec31Case struct {
	dynamics string             // "heat-kernel" | "pagerank" | "lazy-walk"
	reg      regsdp.Regularizer // the G(·) the dynamics implicitly optimizes
	param    float64            // t, γ, or the lazy walk's holding probability α
	k        int                // lazy-walk step count
}

var sec31Cases = []sec31Case{
	{"heat-kernel", regsdp.Entropy, 0.5, 0},
	{"heat-kernel", regsdp.Entropy, 2, 0},
	{"heat-kernel", regsdp.Entropy, 8, 0},
	{"pagerank", regsdp.LogDet, 0.05, 0},
	{"pagerank", regsdp.LogDet, 0.2, 0},
	{"pagerank", regsdp.LogDet, 0.6, 0},
	{"lazy-walk", regsdp.PNorm, 0.6, 2},
	{"lazy-walk", regsdp.PNorm, 0.7, 5},
	{"lazy-walk", regsdp.PNorm, 0.9, 20},
}

func (c sec31Case) paramString() string {
	switch c.reg {
	case regsdp.Entropy:
		return fmt.Sprintf("t=%g", c.param)
	case regsdp.LogDet:
		return fmt.Sprintf("γ=%g", c.param)
	default:
		return fmt.Sprintf("α=%g k=%d", c.param, c.k)
	}
}

// solve returns the operator the dynamics applies, the optimum of its
// regularized SDP, and the regularization strength η that pairs them.
func (c sec31Case) solve(s *regsdp.Spectrum) (op, sdp *regsdp.Solution, eta float64, err error) {
	p := 0.0
	switch c.reg {
	case regsdp.Entropy:
		op, err = regsdp.HeatKernelOperator(s, c.param)
		eta = c.param
	case regsdp.LogDet:
		if op, err = regsdp.PageRankOperator(s, c.param); err == nil {
			eta, err = regsdp.EtaForPageRank(s, c.param)
		}
	default:
		if op, err = regsdp.LazyWalkOperator(s, c.param, c.k); err == nil {
			eta, p, err = regsdp.EtaForLazyWalk(s, c.param, c.k)
		}
	}
	if err != nil {
		return nil, nil, 0, err
	}
	sdp, err = regsdp.Solve(s, c.reg, eta, p)
	return op, sdp, eta, err
}

// Table renders the equivalence result.
func (r *Sec31Result) Table() *Table {
	t := &Table{
		Title:   fmt.Sprintf("§3.1 diffusion = regularized SDP on %s (n=%d, m=%d)", r.GraphName, r.N, r.M),
		Columns: []string{"dynamics", "G(·)", "param", "η", "‖Δweights‖∞", "Tr(𝓛X)", "λ₂"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Dynamics, row.Regularizer, row.Param, f(row.Eta),
			fe(row.WeightDiff), f(row.TraceObj), f(row.Lambda2),
		})
	}
	t.Notes = append(t.Notes, "‖Δweights‖∞ ≈ 0 certifies the diffusion output exactly optimizes the regularized SDP")
	return t
}

// Sec31EarlyStopRow is one truncation level of the early-stopped power
// method experiment.
type Sec31EarlyStopRow struct {
	Steps     int
	Rayleigh  float64 // Rayleigh quotient of the iterate on 𝓛
	SeedAlign float64 // |<iterate, seed-direction>| — the regularization artifact
	ExactGap  float64 // Rayleigh − λ₂, the forward error in objective value
}

// Sec31EarlyStopping runs the §3.1 "truncate the Power Method early"
// experiment: iterates from a seed interpolate between the seed direction
// (strong implicit regularization) and the exact eigenvector v₂ (no
// regularization), with monotone objective value.
func Sec31EarlyStopping(seed int64) ([]Sec31EarlyStopRow, error) {
	rng := rand.New(rand.NewSource(seed))
	g, err := connectedER(rng, 60, 0.12)
	if err != nil {
		return nil, err
	}
	lap := spectral.NormalizedLaplacian(g)
	n := g.N()
	var trips []mat.Triplet
	for i := 0; i < n; i++ {
		trips = append(trips, mat.Triplet{Row: i, Col: i, Val: 2})
	}
	for i := 0; i < n; i++ {
		cols, vals := lap.RowNNZ(i)
		for k, j := range cols {
			trips = append(trips, mat.Triplet{Row: i, Col: j, Val: -vals[k]})
		}
	}
	shifted, err := mat.NewCSR(n, n, trips)
	if err != nil {
		return nil, err
	}
	trivial := spectral.TrivialEigvec(g)
	start := make([]float64, n)
	start[0] = 1 // localized seed: the regularization is toward it
	seedDir := vec.Clone(start)
	vec.ProjectOut(seedDir, trivial)
	vec.Normalize(seedDir)
	fied, err := spectral.Fiedler(g, spectral.FiedlerOptions{})
	if err != nil {
		return nil, err
	}
	var rows []Sec31EarlyStopRow
	for _, k := range []int{0, 1, 2, 5, 10, 30, 100, 1000} {
		x, err := spectral.PowerMethodSteps(shifted, start, k, [][]float64{trivial})
		if err != nil {
			return nil, err
		}
		rq := spectral.RayleighQuotient(lap, x)
		rows = append(rows, Sec31EarlyStopRow{
			Steps:     k,
			Rayleigh:  rq,
			SeedAlign: abs(vec.Dot(x, seedDir)),
			ExactGap:  rq - fied.Lambda2,
		})
	}
	return rows, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Sec31EarlyStopTable renders the early stopping rows.
func Sec31EarlyStopTable(rows []Sec31EarlyStopRow) *Table {
	t := &Table{
		Title:   "§3.1 early-stopped power method: truncation interpolates seed ↔ v₂",
		Columns: []string{"steps k", "Rayleigh(𝓛)", "|align with seed|", "gap to λ₂"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{d(r.Steps), f(r.Rayleigh), f(r.SeedAlign), fe(r.ExactGap)})
	}
	t.Notes = append(t.Notes, "fewer steps → stronger pull toward the seed (implicit regularization), larger objective gap")
	return t
}

func connectedER(rng *rand.Rand, n int, p float64) (*graph.Graph, error) {
	for tries := 0; tries < 100; tries++ {
		g, err := gen.ErdosRenyi(n, p, rng)
		if err != nil {
			return nil, err
		}
		if g.IsConnected() {
			return g, nil
		}
	}
	return nil, fmt.Errorf("experiments: could not sample a connected G(%d,%v)", n, p)
}
