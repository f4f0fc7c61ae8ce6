// Package spectral implements the spectral graph theory substrate of the
// paper: Laplacian and walk matrices, the Power Method of §3.1, Fiedler
// vectors, Rayleigh quotients and the Cheeger inequality used by §3.2's
// quality-of-approximation discussion.
package spectral

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/mat"
)

// Adjacency returns the weighted adjacency matrix A of g as CSR.
func Adjacency(g *graph.Graph) *mat.CSR {
	n := g.N()
	var trips []mat.Triplet
	g.Edges(func(u, v int, w float64) {
		trips = append(trips, mat.Triplet{Row: u, Col: v, Val: w}, mat.Triplet{Row: v, Col: u, Val: w})
	})
	m, err := mat.NewCSR(n, n, trips)
	if err != nil {
		panic(fmt.Sprintf("spectral: Adjacency: %v", err)) // cannot happen: indices from a valid graph
	}
	return m
}

// NormalizedLaplacian returns 𝓛 = I − D^{-1/2} A D^{-1/2} as CSR.
// Isolated nodes contribute a zero row (by convention their diagonal is
// 0, keeping 𝓛 positive semidefinite).
func NormalizedLaplacian(g *graph.Graph) *mat.CSR {
	n := g.N()
	deg := g.Degrees()
	invSqrt := make([]float64, n)
	for i, d := range deg {
		if d > 0 {
			invSqrt[i] = 1 / math.Sqrt(d)
		}
	}
	var trips []mat.Triplet
	for i := 0; i < n; i++ {
		if deg[i] > 0 {
			trips = append(trips, mat.Triplet{Row: i, Col: i, Val: 1})
		}
	}
	g.Edges(func(u, v int, w float64) {
		s := -w * invSqrt[u] * invSqrt[v]
		trips = append(trips, mat.Triplet{Row: u, Col: v, Val: s}, mat.Triplet{Row: v, Col: u, Val: s})
	})
	m, err := mat.NewCSR(n, n, trips)
	if err != nil {
		panic(fmt.Sprintf("spectral: NormalizedLaplacian: %v", err))
	}
	return m
}

// WalkMatrix returns the natural random-walk transition matrix
// M = A D^{-1} as CSR, i.e. column-stochastic: column j sums to 1 when
// node j has positive degree. Applying M to a probability (column) vector
// moves mass one step along the walk, matching the paper's
// M = A D^{-1} convention in Eq. (2).
func WalkMatrix(g *graph.Graph) *mat.CSR {
	n := g.N()
	deg := g.Degrees()
	inv := make([]float64, n)
	for i, d := range deg {
		if d > 0 {
			inv[i] = 1 / d
		}
	}
	return Adjacency(g).ScaleCols(inv)
}

// LazyWalkMatrix returns W_α = αI + (1−α)M, the lazy random-walk matrix
// of §3.1 with holding probability α.
func LazyWalkMatrix(g *graph.Graph, alpha float64) (*mat.CSR, error) {
	if alpha < 0 || alpha > 1 {
		return nil, fmt.Errorf("spectral: LazyWalkMatrix alpha=%v outside [0,1]", alpha)
	}
	n := g.N()
	m := WalkMatrix(g)
	var trips []mat.Triplet
	for i := 0; i < n; i++ {
		trips = append(trips, mat.Triplet{Row: i, Col: i, Val: alpha})
	}
	for i := 0; i < n; i++ {
		cols, vals := m.RowNNZ(i)
		for k, j := range cols {
			trips = append(trips, mat.Triplet{Row: i, Col: j, Val: (1 - alpha) * vals[k]})
		}
	}
	return mat.NewCSR(n, n, trips)
}

// RayleighQuotient returns xᵀMx / xᵀx for a CSR matrix M.
func RayleighQuotient(m *mat.CSR, x []float64) float64 {
	y := m.MulVec(x, nil)
	var num, den float64
	for i, xi := range x {
		num += xi * y[i]
		den += xi * xi
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// TrivialEigvec returns the trivial eigenvector of the normalized
// Laplacian, v₁ ∝ D^{1/2}·1, normalized to unit Euclidean length.
func TrivialEigvec(g *graph.Graph) []float64 {
	n := g.N()
	deg := g.Degrees()
	v := make([]float64, n)
	var s float64
	for i, d := range deg {
		v[i] = math.Sqrt(d)
		s += d
	}
	if s > 0 {
		inv := 1 / math.Sqrt(s)
		for i := range v {
			v[i] *= inv
		}
	}
	return v
}
