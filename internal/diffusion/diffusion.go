// Package diffusion implements the three canonical evolution dynamics of
// §3.1 of the paper: the Heat Kernel, PageRank, and the Lazy Random Walk.
// Each takes an input seed distribution and an "aggressiveness" parameter
// (t, γ, and the step count respectively); run to the limit they forget
// the seed and converge to the stationary distribution, truncated early
// they compute the implicitly regularized objects that §3.1 characterizes
// as exact optima of regularized SDPs (see package regsdp).
package diffusion

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/spectral"
	"repro/internal/vec"
)

// ErrNoConvergence is returned when an iterative solver exhausts its
// iteration budget.
var ErrNoConvergence = errors.New("diffusion: solver did not converge")

// SeedVector returns the uniform probability distribution over the given
// seed nodes as a length-n vector.
func SeedVector(n int, seeds []int) ([]float64, error) {
	if len(seeds) == 0 {
		return nil, errors.New("diffusion: empty seed set")
	}
	s := make([]float64, n)
	w := 1 / float64(len(seeds))
	for _, u := range seeds {
		if u < 0 || u >= n {
			return nil, fmt.Errorf("diffusion: seed %d out of range [0,%d)", u, n)
		}
		s[u] += w
	}
	return s, nil
}

// LazyWalk evolves the seed distribution for k steps of the lazy random
// walk W_α = αI + (1−α)AD^{-1} and returns the resulting distribution.
// k is the aggressiveness parameter: k→∞ converges to the stationary
// distribution for α ∈ (0,1); small k keeps the output seed-dependent.
func LazyWalk(g *graph.Graph, seed []float64, alpha float64, k int) ([]float64, error) {
	if len(seed) != g.N() {
		return nil, fmt.Errorf("diffusion: seed length %d != %d nodes", len(seed), g.N())
	}
	if k < 0 {
		return nil, fmt.Errorf("diffusion: negative step count %d", k)
	}
	w, err := spectral.LazyWalkMatrix(g, alpha)
	if err != nil {
		return nil, fmt.Errorf("diffusion: LazyWalk: %w", err)
	}
	x := vec.Clone(seed)
	y := make([]float64, g.N())
	for step := 0; step < k; step++ {
		y = w.MulVec(x, y)
		x, y = y, x
	}
	return x, nil
}

// PageRankOptions configures the PageRank solver. The zero value uses
// Tol=1e-12 and MaxIter=10_000.
type PageRankOptions struct {
	Tol     float64
	MaxIter int
}

// PageRank computes the Personalized PageRank vector of Eq. (2) of the
// paper: pr = γ (I − (1−γ) M)^{-1} s with M = A D^{-1}, solved by the
// Richardson iteration x ← γ s + (1−γ) M x, which converges
// geometrically with rate (1−γ). The teleportation parameter γ ∈ (0, 1]
// is the aggressiveness knob: γ→0 forgets the seed (stationary limit),
// γ→1 returns the seed itself.
func PageRank(g *graph.Graph, seed []float64, gamma float64, opt PageRankOptions) ([]float64, error) {
	if len(seed) != g.N() {
		return nil, fmt.Errorf("diffusion: seed length %d != %d nodes", len(seed), g.N())
	}
	if gamma <= 0 || gamma > 1 {
		return nil, fmt.Errorf("diffusion: PageRank gamma=%v outside (0,1]", gamma)
	}
	tol := opt.Tol
	if tol <= 0 {
		tol = 1e-12
	}
	maxIter := opt.MaxIter
	if maxIter <= 0 {
		maxIter = 10000
	}
	if gamma == 1 {
		return vec.Clone(seed), nil
	}
	m := spectral.WalkMatrix(g)
	x := vec.Clone(seed)
	y := make([]float64, g.N())
	for it := 0; it < maxIter; it++ {
		y = m.MulVec(x, y)
		for i := range y {
			y[i] = gamma*seed[i] + (1-gamma)*y[i]
		}
		if vec.MaxAbsDiff(x, y) < tol {
			copy(x, y)
			return x, nil
		}
		x, y = y, x
	}
	return x, fmt.Errorf("%w: PageRank after %d iterations (gamma=%v)", ErrNoConvergence, maxIter, gamma)
}

// maxHeatT is the largest time HeatKernel evaluates.
const maxHeatT = 700

// HeatKernelOptions configures the heat-kernel evaluation. The zero value
// uses Tol=1e-12 and MaxTerms=10_000.
type HeatKernelOptions struct {
	Tol      float64
	MaxTerms int
}

// HeatKernel computes exp(−t·𝓛_rw) s where 𝓛_rw = I − M is the
// random-walk Laplacian, via the Taylor series
// exp(−t(I−M)) = e^{-t} Σ_k t^k M^k / k!. The time parameter t ≥ 0 is the
// aggressiveness knob of the heat equation ∂H_t/∂t = −L H_t quoted in
// §3.1: t→∞ equilibrates to the stationary distribution. The series
// is scaled by e^{−t} and stopped against e^t, so t is refused past
// t = 700, short of where e^t overflows float64 (t ≈ 709.78).
func HeatKernel(g *graph.Graph, seed []float64, t float64, opt HeatKernelOptions) ([]float64, error) {
	if len(seed) != g.N() {
		return nil, fmt.Errorf("diffusion: seed length %d != %d nodes", len(seed), g.N())
	}
	if t < 0 || math.IsNaN(t) || math.IsInf(t, 0) {
		return nil, fmt.Errorf("diffusion: HeatKernel t=%v invalid", t)
	}
	if t > maxHeatT {
		return nil, fmt.Errorf("diffusion: HeatKernel t=%v exceeds %d", t, maxHeatT)
	}
	tol := opt.Tol
	if tol <= 0 {
		tol = 1e-12
	}
	maxTerms := opt.MaxTerms
	if maxTerms <= 0 {
		maxTerms = 10000
	}
	m := spectral.WalkMatrix(g)
	// out = e^{-t} Σ_k (t^k/k!) M^k s, accumulating term-by-term. The
	// coefficient weights are the Poisson(t) pmf, so we can stop when the
	// remaining tail mass is below tol (all ||M^k s||₁ ≤ ||s||₁).
	term := vec.Clone(seed) // M^k s
	out := vec.Clone(seed)  // Σ so far with weight w_k = t^k/k!
	weight := 1.0           // t^k/k! for current k
	sumWeights := 1.0
	next := make([]float64, g.N())
	for k := 1; k <= maxTerms; k++ {
		next = m.MulVec(term, next)
		term, next = next, term
		weight *= t / float64(k)
		vec.Axpy(weight, term, out)
		sumWeights += weight
		// Tail of e^{-t}Σ t^k/k! after K terms; once the accumulated
		// weight covers 1−tol of e^{t}, stop.
		if sumWeights >= (1-tol)*math.Exp(t) {
			vec.Scale(math.Exp(-t), out)
			return out, nil
		}
	}
	vec.Scale(math.Exp(-t), out)
	return out, fmt.Errorf("%w: HeatKernel series after %d terms (t=%v)", ErrNoConvergence, maxTerms, t)
}
