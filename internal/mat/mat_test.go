package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func randomSymmetric(n int, rng *rand.Rand) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

func TestDenseMulVec(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(0, 2, 3)
	m.Set(1, 0, 4)
	m.Set(1, 1, 5)
	m.Set(1, 2, 6)
	y := m.MulVec([]float64{1, 1, 1})
	if y[0] != 6 || y[1] != 15 {
		t.Fatalf("MulVec = %v", y)
	}
}

func TestSymEigenDiagonal(t *testing.T) {
	m := NewDense(3, 3)
	m.Set(0, 0, 3)
	m.Set(1, 1, 1)
	m.Set(2, 2, 2)
	e, err := SymEigen(m)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	for i, w := range want {
		if !almostEq(e.Values[i], w, 1e-12) {
			t.Errorf("value[%d] = %v, want %v", i, e.Values[i], w)
		}
	}
}

func TestSymEigenKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	m := NewDense(2, 2)
	m.Set(0, 0, 2)
	m.Set(0, 1, 1)
	m.Set(1, 0, 1)
	m.Set(1, 1, 2)
	e, err := SymEigen(m)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(e.Values[0], 1, 1e-12) || !almostEq(e.Values[1], 3, 1e-12) {
		t.Fatalf("values = %v, want [1 3]", e.Values)
	}
}

func TestSymEigenReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 2, 5, 20, 50} {
		a := randomSymmetric(n, rng)
		e, err := SymEigen(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// A v_k = λ_k v_k, and the eigenvectors are orthonormal.
		for k, lam := range e.Values {
			v := e.Vector(k)
			for i, av := range a.MulVec(v) {
				if d := math.Abs(av - lam*v[i]); d > 1e-9 {
					t.Errorf("n=%d: (A v_%d)[%d] off λv by %v", n, k, i, d)
				}
			}
			for j := 0; j < n; j++ {
				w := e.Vector(j)
				var dot float64
				for i := range v {
					dot += v[i] * w[i]
				}
				if j == k {
					dot--
				}
				if math.Abs(dot) > 1e-9 {
					t.Errorf("n=%d: VᵀV differs from I by %v at (%d,%d)", n, dot, k, j)
				}
			}
		}
	}
}

func TestSymEigenSortedAscending(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomSymmetric(12, rng)
	e, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(e.Values); i++ {
		if e.Values[i] < e.Values[i-1] {
			t.Fatalf("values not ascending: %v", e.Values)
		}
	}
}

func TestCSRBasics(t *testing.T) {
	m, err := NewCSR(3, 3, []Triplet{
		{0, 1, 2}, {1, 0, 2}, {2, 2, 5}, {0, 1, 1}, // duplicate sums to 3
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Vals) != 3 {
		t.Fatalf("nonzeros = %d, want 3", len(m.Vals))
	}
	d := m.Dense()
	if d.At(0, 1) != 3 {
		t.Fatalf("At(0,1) = %v, want 3 (duplicates summed)", d.At(0, 1))
	}
	if d.At(0, 0) != 0 {
		t.Fatalf("At(0,0) = %v, want 0", d.At(0, 0))
	}
	y := m.MulVec([]float64{1, 1, 1}, nil)
	if y[0] != 3 || y[1] != 2 || y[2] != 5 {
		t.Fatalf("MulVec = %v", y)
	}
}

func TestCSRZeroSumDropped(t *testing.T) {
	m, err := NewCSR(2, 2, []Triplet{{0, 0, 1}, {0, 0, -1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Vals) != 0 {
		t.Fatalf("cancelled entry not dropped, nonzeros = %d", len(m.Vals))
	}
}

func TestCSROutOfRange(t *testing.T) {
	if _, err := NewCSR(2, 2, []Triplet{{2, 0, 1}}); err == nil {
		t.Fatal("out-of-range triplet accepted")
	}
}

func TestCSRScaleCols(t *testing.T) {
	m, err := NewCSR(2, 2, []Triplet{{0, 0, 1}, {0, 1, 2}, {1, 1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	c := m.ScaleCols([]float64{2, 10}).Dense()
	if c.At(0, 0) != 2 || c.At(0, 1) != 20 || c.At(1, 1) != 30 {
		t.Fatalf("ScaleCols wrong: %v", c.Data)
	}
	// Original untouched.
	if m.Vals[0] != 1 {
		t.Fatal("ScaleCols mutated receiver")
	}
}

func TestCSRDenseRoundTrip(t *testing.T) {
	trips := []Triplet{{0, 1, 1}, {1, 0, 1}, {2, 2, 4}, {1, 2, -1}}
	m, err := NewCSR(3, 3, trips)
	if err != nil {
		t.Fatal(err)
	}
	d := m.Dense()
	want := NewDense(3, 3)
	for _, tr := range trips {
		want.Set(tr.Row, tr.Col, tr.Val)
	}
	for i := range want.Data {
		if d.Data[i] != want.Data[i] {
			t.Fatalf("Dense mismatch at (%d,%d)", i/3, i%3)
		}
	}
}

// Property: CSR MulVec agrees with Dense MulVec.
func TestPropCSRMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		var trips []Triplet
		for k := 0; k < rng.Intn(3*n); k++ {
			trips = append(trips, Triplet{rng.Intn(n), rng.Intn(n), rng.NormFloat64()})
		}
		m, err := NewCSR(n, n, trips)
		if err != nil {
			return false
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y1 := m.MulVec(x, nil)
		y2 := m.Dense().MulVec(x)
		for i := range y1 {
			if !almostEq(y1[i], y2[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: eigenvalue sum equals trace for random symmetric matrices.
func TestPropEigenvalueSumIsTrace(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(15)
		a := randomSymmetric(n, rng)
		e, err := SymEigen(a)
		if err != nil {
			return false
		}
		var sum, trace float64
		for i, v := range e.Values {
			sum += v
			trace += a.At(i, i)
		}
		return almostEq(sum, trace, 1e-8*float64(n))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSymmetrize(t *testing.T) {
	m := NewDense(2, 2)
	m.Set(0, 1, 2)
	m.Set(1, 0, 4)
	m.Symmetrize()
	if m.At(0, 1) != 3 || m.At(1, 0) != 3 {
		t.Fatalf("Symmetrize = %v", m.Data)
	}
}
