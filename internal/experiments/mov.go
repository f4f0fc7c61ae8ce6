package experiments

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/spectral"
	"repro/internal/vec"
)

// movResult is the solution of the MOV locally-biased spectral program.
type movResult struct {
	// Vector is the unit-norm solution x of Problem (8) in the symmetric
	// (𝓛) coordinates.
	Vector []float64
	// Embedding is D^{-1/2}·Vector, the coordinates whose sweep cut
	// carries the Cheeger-like guarantee.
	Embedding []float64
	// Rayleigh is xᵀ𝓛x, the objective value.
	Rayleigh float64
	// SeedCorrelation is (xᵀD^{1/2}s)², the locality constraint value κ
	// achieved.
	SeedCorrelation float64
	Iterations      int
}

// mov solves the Mahoney–Orecchia–Vishnoi locally-biased spectral
// program, Problem (8) of the paper:
//
//	minimize xᵀ𝓛x  s.t.  xᵀx = 1,  xᵀD^{1/2}1 = 0,  (xᵀD^{1/2}s)² ≥ κ,
//
// in its dual parameterization: the optimum is x* ∝ (𝓛 − γI)⁺ D^{1/2}s
// (projected orthogonal to the trivial eigenvector) where the multiplier
// γ < λ₂ trades locality for objective value — γ → −∞ recovers the seed
// direction, γ ↑ λ₂ recovers the global Fiedler vector. This is the
// "optimization approach" of §3.3, and as the paper notes it touches all
// the nodes of the graph: the linear solve is global. The correlation κ
// achieved for the given γ is reported rather than inverted.
//
// The solve uses conjugate gradients on the operator (𝓛 − γI) restricted
// to the complement of the trivial eigenvector, where it is positive
// definite for γ < λ₂.
func mov(g *graph.Graph, seeds []int, gamma float64, maxIter int, tol float64) (*movResult, error) {
	if len(seeds) == 0 {
		return nil, errors.New("experiments: MOV needs a nonempty seed set")
	}
	n := g.N()
	if maxIter <= 0 {
		maxIter = 10 * n
	}
	if tol <= 0 {
		tol = 1e-10
	}
	lap := spectral.NormalizedLaplacian(g)
	trivial := spectral.TrivialEigvec(g)

	// Right-hand side: P D^{1/2} s with s the uniform seed distribution.
	s := make([]float64, n)
	w := 1 / float64(len(seeds))
	for _, u := range seeds {
		if u < 0 || u >= n {
			return nil, fmt.Errorf("experiments: MOV seed %d out of range [0,%d)", u, n)
		}
		s[u] += w
	}
	rhs := vec.ScaleByDegree(s, g.Degrees(), 0.5)
	vec.ProjectOut(rhs, trivial)
	if vec.Norm2(rhs) == 0 {
		return nil, errors.New("experiments: MOV seed is parallel to the trivial eigenvector")
	}

	apply := func(x []float64) []float64 {
		y := lap.MulVec(x, nil)
		vec.Axpy(-gamma, x, y)
		vec.ProjectOut(y, trivial)
		return y
	}
	// Conjugate gradients.
	x := make([]float64, n)
	r := vec.Clone(rhs)
	p := vec.Clone(r)
	rs := vec.Dot(r, r)
	iters := 0
	for it := 0; it < maxIter; it++ {
		ap := apply(p)
		denom := vec.Dot(p, ap)
		if denom <= 0 {
			return nil, fmt.Errorf("experiments: MOV operator not positive definite (γ=%v ≥ λ₂?)", gamma)
		}
		alpha := rs / denom
		vec.Axpy(alpha, p, x)
		vec.Axpy(-alpha, ap, r)
		rsNew := vec.Dot(r, r)
		iters = it + 1
		if math.Sqrt(rsNew) < tol*vec.Norm2(rhs) {
			break
		}
		vec.Scale(rsNew/rs, p)
		vec.Axpy(1, r, p)
		rs = rsNew
	}
	vec.ProjectOut(x, trivial)
	if vec.Normalize(x) == 0 {
		return nil, errors.New("experiments: MOV solution vanished")
	}
	sd := vec.ScaleByDegree(s, g.Degrees(), 0.5)
	corr := vec.Dot(x, sd)
	if corr < 0 { // fix the sign so the seed side is positive
		vec.Scale(-1, x)
		corr = -corr
	}
	return &movResult{
		Vector:          x,
		Embedding:       vec.ScaleByDegree(x, g.Degrees(), -0.5),
		Rayleigh:        spectral.RayleighQuotient(lap, x),
		SeedCorrelation: corr * corr,
		Iterations:      iters,
	}, nil
}
