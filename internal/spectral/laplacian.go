// Package spectral implements the spectral graph theory substrate of the
// paper: the normalized Laplacian, the Power Method of §3.1, Fiedler
// vectors, Rayleigh quotients and the Cheeger inequality used by §3.2's
// quality-of-approximation discussion.
package spectral

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/mat"
)

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
