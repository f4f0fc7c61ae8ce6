// Package mat provides the two matrix representations the reproduction
// needs: small dense symmetric matrices, used for exact
// eigendecompositions on the verification path, and CSR sparse matrices,
// used by the scalable spectral and diffusion kernels.
package mat

import (
	"fmt"

	"repro/internal/vec"
)

// Dense is a row-major dense matrix. Most uses in this repository are
// symmetric; the symmetric-only routines (SymEigen, Symmetrize) state
// that requirement explicitly.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, row-major
}

// NewDense returns a zero matrix with the given shape.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// MulVec returns m·x as a new vector.
func (m *Dense) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("mat: MulVec dimension mismatch %d != %d", len(x), m.Cols))
	}
	y := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, r := range row {
			s += r * x[j]
		}
		y[i] = s
	}
	return y
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Dense) FrobeniusNorm() float64 { return vec.Norm2(m.Data) }

// Symmetrize replaces m with (m + mᵀ)/2 in place; m must be square. It is
// used to scrub floating-point asymmetry before symmetric-only routines.
func (m *Dense) Symmetrize() {
	if m.Rows != m.Cols {
		panic("mat: Symmetrize of non-square matrix")
	}
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			v := (m.At(i, j) + m.At(j, i)) / 2
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
}
