// Package vec provides dense vector operations used throughout the
// reproduction: BLAS-level-1 style kernels, norms, and the degree-scaling
// helpers that convert between the combinatorial and normalized Laplacian
// eigenspaces.
//
// All functions treat vectors as []float64 and panic on length mismatch:
// a mismatch is always a programmer error in the calling numeric kernel,
// never a data-dependent condition.
package vec

import (
	"fmt"
	"math"
)

// Clone returns a copy of x.
func Clone(x []float64) []float64 {
	y := make([]float64, len(x))
	copy(y, x)
	return y
}

// Zero sets every entry of x to zero in place.
func Zero(x []float64) {
	for i := range x {
		x[i] = 0
	}
}

// Fill sets every entry of x to v in place.
func Fill(x []float64, v float64) {
	for i := range x {
		x[i] = v
	}
}

// Ones returns the all-ones vector of length n.
func Ones(n int) []float64 {
	x := make([]float64, n)
	Fill(x, 1)
	return x
}

// Basis returns the i-th standard basis vector of length n.
func Basis(n, i int) []float64 {
	if i < 0 || i >= n {
		panic(fmt.Sprintf("vec: basis index %d out of range [0,%d)", i, n))
	}
	x := make([]float64, n)
	x[i] = 1
	return x
}

func checkLen(op string, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("vec: %s length mismatch %d != %d", op, len(x), len(y)))
	}
}

// Dot returns the inner product <x, y>.
func Dot(x, y []float64) float64 {
	checkLen("Dot", x, y)
	var s float64
	for i, xi := range x {
		s += xi * y[i]
	}
	return s
}

// Axpy computes y += a*x in place.
func Axpy(a float64, x, y []float64) {
	checkLen("Axpy", x, y)
	for i, xi := range x {
		y[i] += a * xi
	}
}

// Scale computes x *= a in place.
func Scale(a float64, x []float64) {
	for i := range x {
		x[i] *= a
	}
}

// Add returns x + y as a new vector.
func Add(x, y []float64) []float64 {
	checkLen("Add", x, y)
	z := make([]float64, len(x))
	for i := range x {
		z[i] = x[i] + y[i]
	}
	return z
}

// Sub returns x - y as a new vector.
func Sub(x, y []float64) []float64 {
	checkLen("Sub", x, y)
	z := make([]float64, len(x))
	for i := range x {
		z[i] = x[i] - y[i]
	}
	return z
}

// Mul returns the entrywise (Hadamard) product x ∘ y as a new vector.
func Mul(x, y []float64) []float64 {
	checkLen("Mul", x, y)
	z := make([]float64, len(x))
	for i := range x {
		z[i] = x[i] * y[i]
	}
	return z
}

// Norm2 returns the Euclidean norm ||x||_2, guarding against overflow for
// large entries via scaling.
func Norm2(x []float64) float64 {
	var scale, ssq float64
	ssq = 1
	for _, v := range x {
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			r := scale / a
			ssq = 1 + ssq*r*r
			scale = a
		} else {
			r := a / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// Norm1 returns the ℓ1 norm ||x||_1.
func Norm1(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += math.Abs(v)
	}
	return s
}

// NormInf returns the ℓ∞ norm ||x||_∞.
func NormInf(x []float64) float64 {
	var s float64
	for _, v := range x {
		if a := math.Abs(v); a > s {
			s = a
		}
	}
	return s
}

// Sum returns the sum of the entries of x.
func Sum(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}

// Normalize scales x in place to unit Euclidean norm and returns the
// original norm. A zero vector is left untouched and 0 is returned.
func Normalize(x []float64) float64 {
	n := Norm2(x)
	if n == 0 {
		return 0
	}
	Scale(1/n, x)
	return n
}

// Dist2 returns ||x - y||_2.
func Dist2(x, y []float64) float64 {
	checkLen("Dist2", x, y)
	var scale, ssq float64
	ssq = 1
	for i := range x {
		v := x[i] - y[i]
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			r := scale / a
			ssq = 1 + ssq*r*r
			scale = a
		} else {
			r := a / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// ScaleByDegree returns D^pow x for the diagonal degree matrix encoded by
// deg, i.e. z[i] = deg[i]^pow * x[i]. Typical powers are 1/2 and -1/2 when
// converting between the eigenspaces of L and the generalized eigenproblem
// L y = λ D y. Zero degrees map to zero output for negative powers.
func ScaleByDegree(x, deg []float64, pow float64) []float64 {
	checkLen("ScaleByDegree", x, deg)
	z := make([]float64, len(x))
	for i := range x {
		d := deg[i]
		if d == 0 {
			if pow >= 0 {
				z[i] = 0
			}
			continue
		}
		z[i] = math.Pow(d, pow) * x[i]
	}
	return z
}

// ProjectOut removes the component of x along the unit vector u in place:
// x <- x - <x,u> u. u must have unit norm for the projection to be exact.
func ProjectOut(x, u []float64) {
	checkLen("ProjectOut", x, u)
	c := Dot(x, u)
	Axpy(-c, u, x)
}

// ArgMax returns the index of the largest entry of x (first on ties), or
// -1 for an empty vector.
func ArgMax(x []float64) int {
	if len(x) == 0 {
		return -1
	}
	best := 0
	for i, v := range x {
		if v > x[best] {
			best = i
		}
	}
	return best
}

// ArgMin returns the index of the smallest entry of x (first on ties), or
// -1 for an empty vector.
func ArgMin(x []float64) int {
	if len(x) == 0 {
		return -1
	}
	best := 0
	for i, v := range x {
		if v < x[best] {
			best = i
		}
	}
	return best
}

// MaxAbsDiff returns max_i |x[i]-y[i]|, a convenient convergence measure.
func MaxAbsDiff(x, y []float64) float64 {
	checkLen("MaxAbsDiff", x, y)
	var s float64
	for i := range x {
		if a := math.Abs(x[i] - y[i]); a > s {
			s = a
		}
	}
	return s
}

// AllFinite reports whether every entry of x is finite (no NaN or Inf).
func AllFinite(x []float64) bool {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
