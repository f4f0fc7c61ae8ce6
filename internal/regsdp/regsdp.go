// Package regsdp implements the Mahoney–Orecchia regularized SDP
// framework of §3.1 [32]: the program
//
//	minimize   Tr(𝓛X) + (1/η)·G(X)
//	subject to X ⪰ 0, Tr(X) = 1, X·D^{1/2}1 = 0,
//
// whose solutions, for three choices of the regularizer G, are exactly
// the operators computed by the three diffusion dynamics:
//
//	G = generalized (von Neumann) entropy  →  Heat Kernel, η = t
//	G = log-determinant                    →  PageRank, μ = γ/(1−γ)
//	G = matrix p-norm (1/p)Tr(Xᵖ)          →  Lazy Random Walk, p = 1+1/k
//
// Because every term is a spectral function of the fixed operator 𝓛, the
// optimum commutes with 𝓛 and the matrix program collapses to a separable
// convex program over the nontrivial spectrum: this package solves that
// program exactly (softmax / bisection on the dual variable) and also
// provides a projected-gradient solver as an independent numerical
// cross-check, plus constructors for the diffusion operators themselves
// so tests and experiments can verify the equivalence to machine
// precision.
package regsdp

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/mat"
	"repro/internal/spectral"
)

// Regularizer enumerates the three regularization functions G(·) of §3.1.
type Regularizer int

const (
	// Entropy is the generalized (negative von Neumann) entropy
	// G(X) = Tr(X ln X); its SDP optimum is the heat-kernel operator.
	Entropy Regularizer = iota
	// LogDet is G(X) = −ln det X; its SDP optimum is the PageRank
	// resolvent.
	LogDet
	// PNorm is G(X) = (1/p)·Tr(Xᵖ); its SDP optimum is a power of the
	// lazy random-walk operator.
	PNorm
)

func (r Regularizer) String() string {
	switch r {
	case Entropy:
		return "entropy"
	case LogDet:
		return "log-det"
	case PNorm:
		return "p-norm"
	default:
		return fmt.Sprintf("Regularizer(%d)", int(r))
	}
}

// Spectrum is the eigendecomposition of the normalized Laplacian with the
// trivial eigenpair identified, the common substrate for all solvers in
// this package.
type Spectrum struct {
	Eigen *mat.Eigen
	// NontrivialFrom is the index of the first nontrivial eigenvalue
	// (1 for connected graphs; eigenvalue 0 has multiplicity = number of
	// connected components).
	NontrivialFrom int
}

// NewSpectrum computes the dense eigendecomposition of the normalized
// Laplacian of g. g must be connected: the SDP's feasible set projects
// out exactly one trivial eigenvector.
func NewSpectrum(g *graph.Graph) (*Spectrum, error) {
	if !g.IsConnected() {
		return nil, errors.New("regsdp: graph must be connected (trivial eigenspace must be one-dimensional)")
	}
	if g.N() < 2 {
		return nil, fmt.Errorf("regsdp: need at least 2 nodes, got %d", g.N())
	}
	lap := spectral.NormalizedLaplacian(g)
	e, err := mat.SymEigen(lap.Dense())
	if err != nil {
		return nil, fmt.Errorf("regsdp: eigendecomposition: %w", err)
	}
	return &Spectrum{Eigen: e, NontrivialFrom: 1}, nil
}

// NontrivialValues returns the nontrivial eigenvalues λ₂ ≤ ⋯ ≤ λₙ.
func (s *Spectrum) NontrivialValues() []float64 {
	return s.Eigen.Values[s.NontrivialFrom:]
}

// Solution is a solution of the (regularized) SDP, represented spectrally:
// X = Σᵢ Weights[i]·vᵢvᵢᵀ over the nontrivial eigenvectors vᵢ.
type Solution struct {
	Spectrum *Spectrum
	// Weights[i] pairs with Spectrum.NontrivialValues()[i]; they are
	// nonnegative and sum to 1 (Tr X = 1).
	Weights []float64
	// Dual is the optimal dual variable for the trace constraint (the ν
	// in the KKT stationarity condition), where applicable.
	Dual float64
}

// Matrix materializes the solution as a dense density matrix.
func (s *Solution) Matrix() *mat.Dense {
	e := s.Spectrum.Eigen
	n := len(e.Values)
	out := mat.NewDense(n, n)
	for i, w := range s.Weights {
		if w == 0 {
			continue
		}
		v := e.Vector(s.Spectrum.NontrivialFrom + i)
		for a := 0; a < n; a++ {
			if v[a] == 0 {
				continue
			}
			row := out.Data[a*n : (a+1)*n]
			for b := 0; b < n; b++ {
				row[b] += w * v[a] * v[b]
			}
		}
	}
	return out
}

// TraceObjective returns Tr(𝓛X) = Σᵢ λᵢ wᵢ, the un-regularized SDP
// objective (the Rayleigh-quotient part).
func (s *Solution) TraceObjective() float64 {
	var t float64
	for i, lam := range s.Spectrum.NontrivialValues() {
		t += lam * s.Weights[i]
	}
	return t
}

// SolveUnregularized returns the solution of the plain SDP of Problem (4)
// of the paper: the rank-one density matrix v₂v₂ᵀ (ties on λ₂ broken by
// eigendecomposition order, mirroring the ill-posedness the paper notes
// when λ₂ is not simple).
func SolveUnregularized(s *Spectrum) *Solution {
	w := make([]float64, len(s.NontrivialValues()))
	if len(w) > 0 {
		w[0] = 1
	}
	return &Solution{Spectrum: s, Weights: w, Dual: math.NaN()}
}

// Solve computes the exact optimum of the regularized SDP for the given
// regularizer and η > 0 (and exponent p > 1 for PNorm, ignored
// otherwise).
func Solve(s *Spectrum, reg Regularizer, eta, p float64) (*Solution, error) {
	if eta <= 0 || math.IsNaN(eta) || math.IsInf(eta, 0) {
		return nil, fmt.Errorf("regsdp: eta=%v must be positive and finite", eta)
	}
	lams := s.NontrivialValues()
	if len(lams) == 0 {
		return nil, errors.New("regsdp: empty nontrivial spectrum")
	}
	switch reg {
	case Entropy:
		return solveEntropy(s, lams, eta), nil
	case LogDet:
		return solveLogDet(s, lams, eta)
	case PNorm:
		if p <= 1 || math.IsNaN(p) || math.IsInf(p, 0) {
			return nil, fmt.Errorf("regsdp: p-norm exponent p=%v must be > 1", p)
		}
		return solvePNorm(s, lams, eta, p)
	default:
		return nil, fmt.Errorf("regsdp: unknown regularizer %v", reg)
	}
}

// solveEntropy: wᵢ = exp(−η λᵢ)/Z (softmax over the spectrum) — exactly
// the Gibbs weights of the heat kernel at time t = η.
func solveEntropy(s *Spectrum, lams []float64, eta float64) *Solution {
	w := make([]float64, len(lams))
	// Stabilized softmax: shift by the minimum eigenvalue.
	lo := lams[0]
	var z float64
	for i, lam := range lams {
		w[i] = math.Exp(-eta * (lam - lo))
		z += w[i]
	}
	for i := range w {
		w[i] /= z
	}
	// Dual ν from stationarity λᵢ + (1/η)(ln wᵢ + 1) + ν = 0 at i = 0.
	nu := -(lams[0] + (math.Log(w[0])+1)/eta)
	return &Solution{Spectrum: s, Weights: w, Dual: nu}
}

// solveLogDet: wᵢ = 1/(η(λᵢ + ν)) with ν solving Σᵢ wᵢ = 1 by bisection.
// These are resolvent weights — the PageRank operator's spectrum.
func solveLogDet(s *Spectrum, lams []float64, eta float64) (*Solution, error) {
	n := float64(len(lams))
	lo := lams[0]
	// Need ν > −λ_min. Sum is decreasing in ν; find a bracket.
	f := func(nu float64) float64 {
		var sum float64
		for _, lam := range lams {
			sum += 1 / (eta * (lam + nu))
		}
		return sum - 1
	}
	// Lower bracket: ν slightly above −λ_min ⇒ sum → +∞.
	a := -lo + 1e-14
	for f(a) < 0 {
		// Degenerate only if eta is enormous; pull closer to the pole.
		a = -lo + (a+lo)/2
		if a+lo < 1e-300 {
			return nil, fmt.Errorf("regsdp: log-det bisection failed to bracket (eta=%v)", eta)
		}
	}
	// Upper bracket: large ν makes the sum tiny.
	b := -lo + math.Max(1, n/eta) + 1
	for f(b) > 0 {
		b = -lo + 2*(b+lo)
		if math.IsInf(b, 1) {
			return nil, fmt.Errorf("regsdp: log-det bisection upper bracket diverged (eta=%v)", eta)
		}
	}
	nu := bisect(f, a, b, 1e-14, 400)
	w := make([]float64, len(lams))
	var z float64
	for i, lam := range lams {
		w[i] = 1 / (eta * (lam + nu))
		z += w[i]
	}
	for i := range w {
		w[i] /= z // scrub the residual bisection error so Tr X = 1 exactly
	}
	return &Solution{Spectrum: s, Weights: w, Dual: nu}, nil
}

// solvePNorm: wᵢ = (η(μ − λᵢ))₊^{1/(p−1)} with μ solving Σᵢ wᵢ = 1.
// These are truncated-power weights — the lazy random walk's spectrum
// with k = 1/(p−1) steps.
func solvePNorm(s *Spectrum, lams []float64, eta, p float64) (*Solution, error) {
	inv := 1 / (p - 1)
	f := func(mu float64) float64 {
		var sum float64
		for _, lam := range lams {
			if d := mu - lam; d > 0 {
				sum += math.Pow(eta*d, inv)
			}
		}
		return sum - 1
	}
	// Sum is increasing in μ; bracket.
	a := lams[0]
	b := lams[len(lams)-1] + math.Pow(1, p-1)/eta + 1
	for f(b) < 0 {
		b = 2*b + 1
		if math.IsInf(b, 1) {
			return nil, fmt.Errorf("regsdp: p-norm bisection upper bracket diverged (eta=%v, p=%v)", eta, p)
		}
	}
	mu := bisect(f, a, b, 1e-14, 400)
	w := make([]float64, len(lams))
	var z float64
	for i, lam := range lams {
		if d := mu - lam; d > 0 {
			w[i] = math.Pow(eta*d, inv)
			z += w[i]
		}
	}
	if z == 0 {
		return nil, fmt.Errorf("regsdp: p-norm solution collapsed (eta=%v, p=%v)", eta, p)
	}
	for i := range w {
		w[i] /= z
	}
	return &Solution{Spectrum: s, Weights: w, Dual: mu}, nil
}

func bisect(f func(float64) float64, a, b, tol float64, maxIter int) float64 {
	fa := f(a)
	for i := 0; i < maxIter; i++ {
		m := (a + b) / 2
		fm := f(m)
		if math.Abs(b-a) < tol*(1+math.Abs(m)) || fm == 0 {
			return m
		}
		if (fa > 0) == (fm > 0) {
			a, fa = m, fm
		} else {
			b = m
		}
	}
	return (a + b) / 2
}
