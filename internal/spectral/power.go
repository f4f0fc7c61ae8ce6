package spectral

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/mat"
	"repro/internal/vec"
)

// ErrNoConvergence is returned when an iterative eigensolver exhausts its
// iteration budget before reaching tolerance.
var ErrNoConvergence = errors.New("spectral: eigensolver did not converge")

// PowerOptions configures the Power Method. The zero value requests
// defaults (MaxIter 10000, Tol 1e-10).
type PowerOptions struct {
	MaxIter int     // iteration cap (default 10000)
	Tol     float64 // convergence tolerance on successive-iterate change (default 1e-10)
	Start   []float64
	// Deflate lists unit vectors to project out at every step, keeping the
	// iteration orthogonal to known eigenvectors (e.g. the trivial
	// eigenvector of the normalized Laplacian).
	Deflate [][]float64
}

// PowerResult reports the outcome of a Power Method run.
type PowerResult struct {
	Value      float64   // Rayleigh quotient of the returned vector
	Vector     []float64 // unit-norm iterate
	Iterations int
	Residual   float64 // ||Mx − λx||₂ at exit
}

// PowerMethod runs the classical Power Method of §3.1 on the symmetric
// CSR matrix m: x_{t+1} = M x_t / ||M x_t||, returning the dominant
// eigenpair (largest |λ|). With Deflate vectors it finds the dominant
// eigenpair of the restriction to their orthogonal complement.
//
// The method is the paper's canonical example of an iterative procedure
// whose truncation ("early stopping") regularizes: stopping after t steps
// returns a mixture Σ γᵢ λᵢᵗ vᵢ biased toward the top of the spectrum but
// still carrying the seed's projection on the rest.
func PowerMethod(m *mat.CSR, opt PowerOptions) (*PowerResult, error) {
	if m.Rows != m.ColsN {
		return nil, fmt.Errorf("spectral: PowerMethod requires square matrix, got %dx%d", m.Rows, m.ColsN)
	}
	n := m.Rows
	if n == 0 {
		return nil, errors.New("spectral: PowerMethod on empty matrix")
	}
	maxIter := opt.MaxIter
	if maxIter <= 0 {
		maxIter = 10000
	}
	tol := opt.Tol
	if tol <= 0 {
		tol = 1e-10
	}
	x := opt.Start
	if x == nil {
		rng := rand.New(rand.NewSource(1))
		x = make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
	} else {
		x = vec.Clone(x)
	}
	deflate := func(v []float64) {
		for _, u := range opt.Deflate {
			vec.ProjectOut(v, u)
		}
	}
	deflate(x)
	if vec.Normalize(x) == 0 {
		return nil, errors.New("spectral: PowerMethod start vector lies entirely in the deflated subspace")
	}
	y := make([]float64, n)
	prev := vec.Clone(x)
	for it := 1; it <= maxIter; it++ {
		y = m.MulVec(x, y)
		deflate(y)
		lam := vec.Dot(x, y)
		if vec.Normalize(y) == 0 {
			// x is (numerically) in the kernel of the deflated operator.
			return &PowerResult{Value: 0, Vector: x, Iterations: it, Residual: 0}, nil
		}
		x, y = y, x
		// Align sign with previous iterate so the convergence check works
		// for negative eigenvalues.
		if vec.Dot(x, prev) < 0 {
			vec.Scale(-1, x)
		}
		if vec.MaxAbsDiff(x, prev) < tol {
			res := residual(m, x, lam)
			return &PowerResult{Value: lam, Vector: x, Iterations: it, Residual: res}, nil
		}
		copy(prev, x)
	}
	lam := RayleighQuotient(m, x)
	return &PowerResult{Value: lam, Vector: x, Iterations: maxIter, Residual: residual(m, x, lam)},
		fmt.Errorf("%w: power method after %d iterations", ErrNoConvergence, maxIter)
}

func residual(m *mat.CSR, x []float64, lam float64) float64 {
	y := m.MulVec(x, nil)
	vec.Axpy(-lam, x, y)
	return vec.Norm2(y)
}

// PowerMethodSteps runs exactly k power iterations from the given start
// vector, with the same deflation behaviour, and returns the unit-norm
// iterate. This is the "early stopping" primitive used by the §3.1
// experiments: the output interpolates between the (deflated) seed and
// the dominant eigenvector as k grows.
func PowerMethodSteps(m *mat.CSR, start []float64, k int, deflateVecs [][]float64) ([]float64, error) {
	if m.Rows != m.ColsN {
		return nil, fmt.Errorf("spectral: PowerMethodSteps requires square matrix, got %dx%d", m.Rows, m.ColsN)
	}
	if len(start) != m.Rows {
		return nil, fmt.Errorf("spectral: PowerMethodSteps start length %d != %d", len(start), m.Rows)
	}
	if k < 0 {
		return nil, fmt.Errorf("spectral: PowerMethodSteps negative step count %d", k)
	}
	x := vec.Clone(start)
	for _, u := range deflateVecs {
		vec.ProjectOut(x, u)
	}
	if vec.Normalize(x) == 0 {
		return nil, errors.New("spectral: PowerMethodSteps start vector lies in deflated subspace")
	}
	y := make([]float64, m.Rows)
	for it := 0; it < k; it++ {
		y = m.MulVec(x, y)
		for _, u := range deflateVecs {
			vec.ProjectOut(y, u)
		}
		if vec.Normalize(y) == 0 {
			return x, nil
		}
		x, y = y, x
	}
	return x, nil
}

// FiedlerOptions configures Fiedler-vector computation.
type FiedlerOptions struct {
	MaxIter int
	Tol     float64
	Seed    int64 // seed for the random start vector (0 → 1)
}

// FiedlerResult carries the leading nontrivial eigenpair of the
// normalized Laplacian.
type FiedlerResult struct {
	Lambda2 float64   // second-smallest eigenvalue of 𝓛
	Vector  []float64 // unit eigenvector of 𝓛 (x-space)
	// Embedding is the generalized eigenvector y = D^{-1/2} x, whose sweep
	// cuts realize the Cheeger guarantee; see footnote 13 of the paper.
	Embedding  []float64
	Iterations int
}

// Fiedler computes the leading nontrivial eigenpair (λ₂, v₂) of the
// normalized Laplacian of g by running the (deflated, shifted) Power
// Method on 2I − 𝓛, whose dominant non-trivial eigenvector equals v₂.
// The graph should be connected; on a disconnected graph the returned
// λ₂ is (numerically) 0 and the vector splits components.
func Fiedler(g *graph.Graph, opt FiedlerOptions) (*FiedlerResult, error) {
	n := g.N()
	if n < 2 {
		return nil, fmt.Errorf("spectral: Fiedler needs at least 2 nodes, got %d", n)
	}
	lap := NormalizedLaplacian(g)
	// Shift: B = 2I − 𝓛 has eigenvalues 2 − λ ∈ [0, 2]; its dominant
	// eigenvector is 𝓛's trivial one, so we deflate it away and the power
	// method converges to v₂.
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
		return nil, fmt.Errorf("spectral: Fiedler shift: %w", err)
	}
	seed := opt.Seed
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed))
	start := make([]float64, n)
	for i := range start {
		start[i] = rng.NormFloat64()
	}
	trivial := TrivialEigvec(g)
	res, err := PowerMethod(shifted, PowerOptions{
		MaxIter: opt.MaxIter,
		Tol:     opt.Tol,
		Start:   start,
		Deflate: [][]float64{trivial},
	})
	if err != nil && !errors.Is(err, ErrNoConvergence) {
		return nil, err
	}
	lambda2 := 2 - res.Value
	if lambda2 < 0 && lambda2 > -1e-12 {
		lambda2 = 0
	}
	deg := g.Degrees()
	embed := vec.ScaleByDegree(res.Vector, deg, -0.5)
	out := &FiedlerResult{Lambda2: lambda2, Vector: res.Vector, Embedding: embed, Iterations: res.Iterations}
	if err != nil {
		return out, fmt.Errorf("spectral: Fiedler: %w", err)
	}
	return out, nil
}

// Lambda2UpperBoundCheeger returns the Cheeger upper bound
// φ(G) ≤ √(2 λ₂), the "quadratically good" guarantee of §3.2.
func Lambda2UpperBoundCheeger(lambda2 float64) float64 {
	if lambda2 < 0 {
		lambda2 = 0
	}
	return math.Sqrt(2 * lambda2)
}
