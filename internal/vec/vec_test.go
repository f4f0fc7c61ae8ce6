package vec

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDot(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, -5, 6}
	if got := Dot(x, y); got != 12 {
		t.Fatalf("Dot = %v, want 12", got)
	}
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot with mismatched lengths did not panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestAxpy(t *testing.T) {
	y := []float64{1, 1, 1}
	Axpy(2, []float64{1, 2, 3}, y)
	want := []float64{3, 5, 7}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("Axpy[%d] = %v, want %v", i, y[i], want[i])
		}
	}
}

func TestNorms(t *testing.T) {
	x := []float64{3, -4}
	if got := Norm2(x); !almostEq(got, 5, 1e-12) {
		t.Errorf("Norm2 = %v, want 5", got)
	}
}

func TestNorm2OverflowSafe(t *testing.T) {
	x := []float64{1e300, 1e300}
	got := Norm2(x)
	want := 1e300 * math.Sqrt2
	if math.IsInf(got, 0) || !almostEq(got/want, 1, 1e-12) {
		t.Fatalf("Norm2 overflowed: got %v, want %v", got, want)
	}
}

func TestNormalize(t *testing.T) {
	x := []float64{3, 4}
	n := Normalize(x)
	if !almostEq(n, 5, 1e-12) {
		t.Fatalf("Normalize returned %v, want 5", n)
	}
	if !almostEq(Norm2(x), 1, 1e-12) {
		t.Fatalf("normalized norm = %v, want 1", Norm2(x))
	}
	z := []float64{0, 0}
	if Normalize(z) != 0 {
		t.Fatal("Normalize of zero vector should return 0")
	}
}

func TestProjectOut(t *testing.T) {
	u := []float64{1, 0, 0}
	x := []float64{3, 4, 5}
	ProjectOut(x, u)
	if x[0] != 0 || x[1] != 4 || x[2] != 5 {
		t.Fatalf("ProjectOut = %v", x)
	}
}

func TestScaleByDegree(t *testing.T) {
	x := []float64{2, 3, 5}
	deg := []float64{4, 9, 0}
	z := ScaleByDegree(x, deg, -0.5)
	if !almostEq(z[0], 1, 1e-12) || !almostEq(z[1], 1, 1e-12) || z[2] != 0 {
		t.Fatalf("ScaleByDegree = %v", z)
	}
}

// Property: Cauchy–Schwarz |<x,y>| <= ||x|| ||y||.
func TestPropCauchySchwarz(t *testing.T) {
	f := func(xs, ys []float64) bool {
		n := len(xs)
		if len(ys) < n {
			n = len(ys)
		}
		x, y := xs[:n], ys[:n]
		for _, v := range append(append([]float64{}, x...), y...) {
			if math.IsNaN(v) || math.Abs(v) > 1e150 {
				return true
			}
		}
		lhs := math.Abs(Dot(x, y))
		rhs := Norm2(x) * Norm2(y)
		return lhs <= rhs*(1+1e-9)+1e-300
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: triangle inequality for Norm2.
func TestPropTriangleInequality(t *testing.T) {
	f := func(xs, ys []float64) bool {
		n := len(xs)
		if len(ys) < n {
			n = len(ys)
		}
		x, y := xs[:n], ys[:n]
		for _, v := range append(append([]float64{}, x...), y...) {
			if math.IsNaN(v) || math.Abs(v) > 1e150 {
				return true
			}
		}
		sum := make([]float64, n)
		for i := range sum {
			sum[i] = x[i] + y[i]
		}
		return Norm2(sum) <= Norm2(x)+Norm2(y)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMaxAbsDiff(t *testing.T) {
	if got := MaxAbsDiff([]float64{1, 5}, []float64{2, 3}); got != 2 {
		t.Fatalf("MaxAbsDiff = %v, want 2", got)
	}
}

func TestCloneIndependent(t *testing.T) {
	x := []float64{1, 2}
	y := Clone(x)
	y[0] = 99
	if x[0] != 1 {
		t.Fatal("Clone aliases input")
	}
}
