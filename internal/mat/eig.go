package mat

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrNoConvergence is returned when an iterative eigenroutine fails to
// reach its tolerance within the iteration budget.
var ErrNoConvergence = errors.New("mat: eigensolver did not converge")

// Eigen holds a full symmetric eigendecomposition A = V diag(λ) Vᵀ with
// eigenvalues sorted in ascending order. Column j of V (i.e. V.At(i, j)
// over i) is the eigenvector for Values[j].
type Eigen struct {
	Values  []float64
	Vectors *Dense // n×n, eigenvectors in columns
}

// SymEigen computes the full eigendecomposition of the symmetric matrix a
// using the cyclic Jacobi method. It is intended for the dense
// verification path (n up to a few thousand). The input is not modified.
func SymEigen(a *Dense) (*Eigen, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("mat: SymEigen requires square matrix, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	if n == 0 {
		return &Eigen{Values: nil, Vectors: NewDense(0, 0)}, nil
	}
	w := a.Clone()
	w.Symmetrize()
	v := Identity(n)

	const maxSweeps = 100
	// Tolerance scaled to the matrix magnitude.
	norm := w.FrobeniusNorm()
	if norm == 0 {
		return sortedEigen(diag(w), v), nil
	}
	tol := 1e-14 * norm

	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := offDiagNorm(w)
		if off <= tol {
			return sortedEigen(diag(w), v), nil
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if math.Abs(apq) <= tol/float64(n*n) {
					continue
				}
				jacobiRotate(w, v, p, q)
			}
		}
	}
	if offDiagNorm(w) <= tol*10 {
		return sortedEigen(diag(w), v), nil
	}
	return nil, fmt.Errorf("%w: Jacobi off-diagonal norm %.3e after %d sweeps", ErrNoConvergence, offDiagNorm(w), maxSweeps)
}

func diag(m *Dense) []float64 {
	d := make([]float64, m.Rows)
	for i := range d {
		d[i] = m.At(i, i)
	}
	return d
}

func offDiagNorm(m *Dense) float64 {
	var s float64
	n := m.Rows
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := m.At(i, j)
			s += 2 * v * v
		}
	}
	return math.Sqrt(s)
}

// jacobiRotate zeroes w[p][q] with a Givens rotation, accumulating the
// rotation into v.
func jacobiRotate(w, v *Dense, p, q int) {
	n := w.Rows
	apq := w.At(p, q)
	app := w.At(p, p)
	aqq := w.At(q, q)
	theta := (aqq - app) / (2 * apq)
	var t float64
	if theta >= 0 {
		t = 1 / (theta + math.Sqrt(1+theta*theta))
	} else {
		t = -1 / (-theta + math.Sqrt(1+theta*theta))
	}
	c := 1 / math.Sqrt(1+t*t)
	s := t * c
	tau := s / (1 + c)

	w.Set(p, p, app-t*apq)
	w.Set(q, q, aqq+t*apq)
	w.Set(p, q, 0)
	w.Set(q, p, 0)
	for i := 0; i < n; i++ {
		if i == p || i == q {
			continue
		}
		aip := w.At(i, p)
		aiq := w.At(i, q)
		w.Set(i, p, aip-s*(aiq+tau*aip))
		w.Set(p, i, w.At(i, p))
		w.Set(i, q, aiq+s*(aip-tau*aiq))
		w.Set(q, i, w.At(i, q))
	}
	for i := 0; i < n; i++ {
		vip := v.At(i, p)
		viq := v.At(i, q)
		v.Set(i, p, vip-s*(viq+tau*vip))
		v.Set(i, q, viq+s*(vip-tau*viq))
	}
}

func sortedEigen(vals []float64, vectors *Dense) *Eigen {
	n := len(vals)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return vals[idx[a]] < vals[idx[b]] })
	sv := make([]float64, n)
	sm := NewDense(n, n)
	for newCol, oldCol := range idx {
		sv[newCol] = vals[oldCol]
		for i := 0; i < n; i++ {
			sm.Set(i, newCol, vectors.At(i, oldCol))
		}
	}
	return &Eigen{Values: sv, Vectors: sm}
}

// Vector returns a copy of the j-th eigenvector (ascending eigenvalue
// order) as a slice.
func (e *Eigen) Vector(j int) []float64 {
	n := e.Vectors.Rows
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = e.Vectors.At(i, j)
	}
	return x
}
