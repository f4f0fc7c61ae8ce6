package experiments

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/spectral"
	"repro/internal/vec"
)

func TestMOVInterpolatesSeedToFiedler(t *testing.T) {
	g := gen.Dumbbell(6, 2)
	fied, err := spectral.Fiedler(g, spectral.FiedlerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	seeds := []int{0}
	// γ far below 0: solution close to the (projected) seed direction.
	resLow, err := mov(g, seeds, -100, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// γ close to λ₂: solution close to the Fiedler vector.
	resHigh, err := mov(g, seeds, fied.Lambda2*0.995, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	align := math.Abs(vec.Dot(resHigh.Vector, fied.Vector))
	if align < 0.99 {
		t.Errorf("γ→λ₂ MOV alignment with Fiedler = %v, want ≈1", align)
	}
	if resLow.SeedCorrelation < resHigh.SeedCorrelation {
		t.Errorf("seed correlation should decrease with γ: low=%v high=%v",
			resLow.SeedCorrelation, resHigh.SeedCorrelation)
	}
	// Objective must increase as the locality constraint tightens.
	if resLow.Rayleigh < resHigh.Rayleigh-1e-9 {
		t.Errorf("Rayleigh should grow with locality: low-γ %v < high-γ %v",
			resLow.Rayleigh, resHigh.Rayleigh)
	}
}

func TestMOVSatisfiesStationarity(t *testing.T) {
	// (𝓛 − γI)x must be parallel to P D^{1/2}s.
	g := gen.RingOfCliques(3, 4)
	gamma := -0.5
	res, err := mov(g, []int{2}, gamma, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	lap := spectral.NormalizedLaplacian(g)
	y := lap.MulVec(res.Vector, nil)
	vec.Axpy(-gamma, res.Vector, y)
	s := make([]float64, g.N())
	s[2] = 1
	rhs := vec.ScaleByDegree(s, g.Degrees(), 0.5)
	vec.ProjectOut(rhs, spectral.TrivialEigvec(g))
	// Cosine similarity between y and rhs should be ±1.
	cos := vec.Dot(y, rhs) / (vec.Norm2(y) * vec.Norm2(rhs))
	if math.Abs(math.Abs(cos)-1) > 1e-6 {
		t.Fatalf("stationarity violated: cos = %v", cos)
	}
}

func TestMOVErrors(t *testing.T) {
	g := gen.Dumbbell(4, 0)
	if _, err := mov(g, nil, -1, 0, 0); err == nil {
		t.Fatal("empty seeds accepted")
	}
	if _, err := mov(g, []int{99}, -1, 0, 0); err == nil {
		t.Fatal("out-of-range seed accepted")
	}
	// γ ≥ λ₂ makes the operator indefinite; must error, not hang.
	if _, err := mov(g, []int{0}, 10, 0, 0); err == nil {
		t.Fatal("γ > λ₂ accepted")
	}
}
