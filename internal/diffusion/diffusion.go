// Package diffusion implements the three canonical evolution dynamics of
// §3.1 of the paper: the Heat Kernel, PageRank, and the Lazy Random Walk.
// Each takes an input seed distribution and an "aggressiveness" parameter
// (t, γ, and the step count respectively); run to the limit they forget
// the seed and converge to the stationary distribution, truncated early
// they compute the implicitly regularized objects that §3.1 characterizes
// as exact optima of regularized SDPs (see package regsdp).
//
// They are dense: every step multiplies a length-n vector by the walk
// matrix, O(n + m) work over the graph's rows, read in place (mulWalk);
// no matrix is built and the graph is not copied.
package diffusion

import (
	"errors"
	"fmt"
	"math"
	"runtime"

	"repro/internal/gstore"
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

// invDegrees returns 1/deg(j) per node, 0 for an isolated node: the
// column scaling of the walk matrix M = A·D^{-1}.
func invDegrees(g gstore.Graph) []float64 {
	inv := make([]float64, g.N())
	for j := range inv {
		if d := g.Degree(j); d > 0 {
			inv[j] = 1 / d
		}
	}
	return inv
}

// mulWalk sets y = (αI + (1−α)M)·x, M = A·D^{-1}, reading g's rows in
// place; α = 0 is M itself. Row i sums ((1−α)·(w·inv[j]))·x[j] over its
// neighbours in ascending order, with α·x[i] (skipped when α = 0) added
// between the neighbours below i and those above: the CSR product over
// the assembled matrix, term for term. The matrix drops entries that
// are exactly zero and this loop adds them, but a zero term changes no
// partial sum (a sum that starts at +0 never reaches −0), so for finite
// x the bits are the matrix form's, which the tests keep as their
// oracle.
func mulWalk(g gstore.Graph, inv []float64, alpha float64, x, y []float64) {
	if w32 := g.RawWeights32(); w32 != nil {
		mulRows(g.RawRowPtr(), g.RawAdj(), w32, inv, alpha, x, y)
	} else {
		mulRows(g.RawRowPtr(), g.RawAdj(), g.RawWeights64(), inv, alpha, x, y)
	}
	// A mapped graph's raw slices do not keep g reachable; without this
	// pin the collector could unmap it mid-product.
	runtime.KeepAlive(g)
}

// mulRows is mulWalk over the raw CSR arrays, instantiated per stored
// weight type; nil wts means unit weights.
func mulRows[W float32 | float64](rowPtr []int64, adj []uint32, wts []W, inv []float64, alpha float64, x, y []float64) {
	beta := 1 - alpha
	for i := range y {
		var s float64
		diag := alpha != 0
		for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
			j, w := int(adj[k]), 1.0
			if wts != nil {
				w = float64(wts[k])
			}
			if diag && j > i {
				s += alpha * x[i]
				diag = false
			}
			s += beta * (w * inv[j]) * x[j]
		}
		if diag {
			s += alpha * x[i]
		}
		y[i] = s
	}
}

// LazyWalk evolves the seed distribution for k steps of the lazy random
// walk W_α = αI + (1−α)AD^{-1} and returns the resulting distribution.
// k is the aggressiveness parameter: k→∞ converges to the stationary
// distribution for α ∈ (0,1); small k keeps the output seed-dependent.
func LazyWalk(g gstore.Graph, seed []float64, alpha float64, k int) ([]float64, error) {
	if len(seed) != g.N() {
		return nil, fmt.Errorf("diffusion: seed length %d != %d nodes", len(seed), g.N())
	}
	if k < 0 {
		return nil, fmt.Errorf("diffusion: negative step count %d", k)
	}
	if alpha < 0 || alpha > 1 {
		return nil, fmt.Errorf("diffusion: LazyWalk alpha=%v outside [0,1]", alpha)
	}
	inv := invDegrees(g)
	x := vec.Clone(seed)
	y := make([]float64, g.N())
	for step := 0; step < k; step++ {
		mulWalk(g, inv, alpha, x, y)
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
func PageRank(g gstore.Graph, seed []float64, gamma float64, opt PageRankOptions) ([]float64, error) {
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
	inv := invDegrees(g)
	x := vec.Clone(seed)
	y := make([]float64, g.N())
	for it := 0; it < maxIter; it++ {
		mulWalk(g, inv, 0, x, y)
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
func HeatKernel(g gstore.Graph, seed []float64, t float64, opt HeatKernelOptions) ([]float64, error) {
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
	inv := invDegrees(g)
	// out = e^{-t} Σ_k (t^k/k!) M^k s, accumulating term-by-term. The
	// coefficient weights are the Poisson(t) pmf, so we can stop when the
	// remaining tail mass is below tol (all ||M^k s||₁ ≤ ||s||₁).
	term := vec.Clone(seed) // M^k s
	out := vec.Clone(seed)  // Σ so far with weight w_k = t^k/k!
	weight := 1.0           // t^k/k! for current k
	sumWeights := 1.0
	next := make([]float64, g.N())
	for k := 1; k <= maxTerms; k++ {
		mulWalk(g, inv, 0, term, next)
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
