package kernel_test

import (
	"context"
	"testing"

	"repro/internal/kernel"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestDiffuseAllocatesNothing locks the "kernel is 0 allocs" claim
// where it is made instead of leaving it to benchmark output: on a
// warmed workspace a single-seed DiffuseContext — validation, seeding,
// the backend dispatch, the strategy's runner, the OnStep hook —
// allocates nothing on any backend.
func TestDiffuseAllocatesNothing(t *testing.T) {
	steps := 0
	methods := map[string]kernel.Diffuser{
		"push": kernel.PushACL{Alpha: 0.13, Eps: 3e-5},
		"nibble": kernel.NibbleWalk{Eps: 1e-4, Steps: 18, OnStep: func(int, *kernel.Workspace) error {
			steps++
			return nil
		}},
		"heat": kernel.HeatKernel{T: 4.5, Eps: 1e-4},
	}
	seeds := []int{17}
	for backendName, g := range batchBackends(t, batchTestGraph(t)) {
		ws := kernel.NewWorkspace(g.N())
		for methodName, method := range methods {
			diffuse := func() {
				if _, err := method.DiffuseContext(context.Background(), g, ws, seeds); err != nil {
					t.Fatalf("%s/%s: %v", backendName, methodName, err)
				}
			}
			diffuse() // grow the touched lists and the queue once
			if allocs := testing.AllocsPerRun(20, diffuse); allocs != 0 {
				t.Errorf("%s/%s: DiffuseContext allocates %v times per run, want 0", backendName, methodName, allocs)
			}
		}
	}
	if steps == 0 {
		t.Fatal("the nibble OnStep hook never ran")
	}
}

// TestBatchRunAllocationBound: a one-worker Run allocates its Stats
// slice and the task closure (it measures 2) and nothing per seed — so
// the count is the same at K=8 and K=64, and no more than the 10 the
// blocked engine measured at K=64 (one workspace slice per block).
func TestBatchRunAllocationBound(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool does not retain workspaces under the race detector")
	}
	const parentAllocs = 10
	hg := batchTestGraph(t)
	for backendName, g := range batchBackends(t, hg) {
		pool := kernel.NewPool(g.N())
		for methodName, method := range batchMethods() {
			bd := kernel.BatchDiffuser{Method: method, Workers: 1}
			allocs := func(k int) float64 {
				seeds := batchSeeds(hg.N(), k)
				run := func() {
					if _, err := bd.Run(context.Background(), g, pool, seeds, nil); err != nil {
						t.Fatalf("%s/%s: %v", backendName, methodName, err)
					}
				}
				run() // fill the pool and grow its workspace
				return testing.AllocsPerRun(10, run)
			}
			a8, a64 := allocs(8), allocs(64)
			if a64 > parentAllocs {
				t.Errorf("%s/%s: K=64 Run allocates %v times, parent %d", backendName, methodName, a64, parentAllocs)
			}
			if a8 != a64 {
				t.Errorf("%s/%s: Run allocates %v times at K=8 but %v at K=64; per-seed allocations must be zero", backendName, methodName, a8, a64)
			}
		}
	}
}
