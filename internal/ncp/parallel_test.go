package ncp

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/kernel"
)

func TestPushEpsBranches(t *testing.T) {
	// Base branch: eps = 2·0.2/(1000/100) = 0.04 lies strictly between
	// the floor 10/1000 = 0.01 and the cap 0.2/4 = 0.05, so neither
	// clamp binds.
	if got, want := pushEps(0.2, 1000, 2), 0.04; got != want {
		t.Errorf("base branch: pushEps = %g, want %g", got, want)
	}
	// Floor branch: tiny alpha on a huge graph drives the base value
	// below 10/vol, which must win.
	vol := 1e6
	if got, want := pushEps(0.001, vol, 0.1), 10/vol; got != want {
		t.Errorf("floor branch: pushEps = %g, want 10/vol = %g", got, want)
	}
	// Cap branch: on a small graph the floor 10/vol exceeds alpha/4 and
	// the cap must win (otherwise pushes return empty supports).
	if got, want := pushEps(0.05, 60, 0.1), 0.05/4; got != want {
		t.Errorf("cap branch: pushEps = %g, want alpha/4 = %g", got, want)
	}
	// The cap is applied after the floor: both binding → cap wins.
	if got := pushEps(0.01, 50, 0.1); got != 0.01/4 {
		t.Errorf("floor-then-cap: pushEps = %g, want %g", got, 0.01/4)
	}
	// Degenerate volume must still yield a positive tolerance.
	if got := pushEps(0.1, 0, 0.1); got <= 0 {
		t.Errorf("degenerate volume: pushEps = %g, want > 0", got)
	}
}

// The acceptance property of the parallel NCP engine: with a fixed base
// seed the profiles are identical whatever the worker count.
func TestSpectralProfileDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, err := gen.ForestFire(gen.ForestFireConfig{N: 600, FwdProb: 0.35, Ambs: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) *Profile {
		prof, err := SpectralProfile(context.Background(), g, SpectralConfig{
			Seeds: 6, Alphas: []float64{0.2, 0.05, 0.01},
			Workers: workers, BaseSeed: 99,
		}, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return prof
	}
	want := run(1)
	for _, workers := range []int{2, 8} {
		if got := run(workers); !reflect.DeepEqual(got, want) {
			t.Fatalf("spectral profile differs between workers=1 (%d clusters) and workers=%d (%d clusters)",
				len(want.Clusters), workers, len(got.Clusters))
		}
	}
}

func TestFlowProfileDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g, err := gen.ForestFire(gen.ForestFireConfig{N: 400, FwdProb: 0.35, Ambs: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) *Profile {
		prof, err := FlowProfile(context.Background(), g, FlowConfig{Workers: workers, BaseSeed: 77}, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return prof
	}
	want := run(1)
	for _, workers := range []int{2, 8} {
		if got := run(workers); !reflect.DeepEqual(got, want) {
			t.Fatalf("flow profile differs between workers=1 (%d clusters) and workers=%d (%d clusters)",
				len(want.Clusters), workers, len(got.Clusters))
		}
	}
}

// With BaseSeed unset the profiles draw it from the rng argument, so two
// runs from equal rng states must agree (the pre-parallelism contract).
func TestProfilesSeedFromRNGWhenBaseUnset(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, err := gen.ForestFire(gen.ForestFireConfig{N: 300, FwdProb: 0.35, Ambs: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	sp1, err := SpectralProfile(context.Background(), g, SpectralConfig{Seeds: 4, Alphas: []float64{0.1}}, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	sp2, err := SpectralProfile(context.Background(), g, SpectralConfig{Seeds: 4, Alphas: []float64{0.1}}, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sp1, sp2) {
		t.Fatal("equal rng states produced different spectral profiles")
	}
	fl1, err := FlowProfile(context.Background(), g, FlowConfig{}, rand.New(rand.NewSource(12)))
	if err != nil {
		t.Fatal(err)
	}
	fl2, err := FlowProfile(context.Background(), g, FlowConfig{}, rand.New(rand.NewSource(12)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fl1, fl2) {
		t.Fatal("equal rng states produced different flow profiles")
	}
}

func TestProfilesObserveContextCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g, err := gen.ForestFire(gen.ForestFireConfig{N: 600, FwdProb: 0.35, Ambs: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SpectralProfile(ctx, g, SpectralConfig{Workers: 2, BaseSeed: 1}, rng); !errors.Is(err, context.Canceled) {
		t.Errorf("SpectralProfile err = %v, want context.Canceled", err)
	}
	if _, err := FlowProfile(ctx, g, FlowConfig{Workers: 2, BaseSeed: 1}, rng); !errors.Is(err, context.Canceled) {
		t.Errorf("FlowProfile err = %v, want context.Canceled", err)
	}
}

func TestSpectralProfileCtxMidFlightCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g, err := gen.ForestFire(gen.ForestFireConfig{N: 600, FwdProb: 0.35, Ambs: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(time.Millisecond, cancel)
	_, err = SpectralProfile(ctx, g, SpectralConfig{Seeds: 200, Workers: 2, BaseSeed: 1}, rng)
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Errorf("mid-flight cancel: err = %v, want nil or context.Canceled", err)
	}
}

// TestCollectSweepClustersIsLocal: collecting one seed's sweep clusters
// costs the support, not the graph. The same seed on two rings of
// 8-cliques that differ only in ring length (4k vs 64k nodes) must
// allocate alike; a membership array sized by n (what this function
// used to make per seed) adds 60 kB to the long ring. The slack covers
// the bucket map, whose growth depends on its per-map hash seed.
func TestCollectSweepClustersIsLocal(t *testing.T) {
	cost := func(k int) (allocs float64, bytes uint64, clusters int) {
		g := gen.RingOfCliques(k, 8)
		ws := kernel.NewWorkspace(g.N())
		if _, err := (kernel.PushACL{Alpha: 0.05, Eps: 1e-5}).Diffuse(g, ws, []int{0}); err != nil {
			t.Fatal(err)
		}
		run := func() {
			sub := &Profile{}
			collectSweepClusters(g, ws, 0.5*g.Volume(), sub, "spectral")
			clusters = len(sub.Clusters)
		}
		run() // warm the sweep scratch
		allocs = testing.AllocsPerRun(50, run)
		const reps = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < reps; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / reps, clusters
	}
	aS, bS, cS := cost(512)
	aL, bL, cL := cost(8192)
	if cS != cL || cS < 3 {
		t.Fatalf("fixture: %d and %d clusters — not the same local computation", cS, cL)
	}
	if math.Abs(aS-aL) > 4 || math.Abs(float64(bS)-float64(bL)) > 4096 {
		t.Fatalf("collectSweepClusters costs %v allocs / %d B on 4096 nodes but %v allocs / %d B on 65536 nodes", aS, bS, aL, bL)
	}
}
