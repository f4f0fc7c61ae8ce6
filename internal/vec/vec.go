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
