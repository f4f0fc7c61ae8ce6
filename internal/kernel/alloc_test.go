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
// warmed workspace a single-seed Diffuse — validation, seeding, the
// backend dispatch, the block-of-one runner with its stack-resident
// scratch, the adapted OnStep hook — allocates nothing on any backend.
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
				if _, err := method.Diffuse(g, ws, seeds); err != nil {
					t.Fatalf("%s/%s: %v", backendName, methodName, err)
				}
			}
			diffuse() // grow the touched lists and the queue once
			if allocs := testing.AllocsPerRun(20, diffuse); allocs != 0 {
				t.Errorf("%s/%s: Diffuse allocates %v times per run, want 0", backendName, methodName, allocs)
			}
		}
	}
	if steps == 0 {
		t.Fatal("the nibble OnStep hook never ran")
	}
}

// TestBatchRunAllocationBound: a K=64 batch on one worker allocates its
// Stats slice, the block closure and one workspace slice per block. At
// the parent commit, which also kept each block's loop scratch on the
// heap, the same call measured 26 allocations for every method and
// backend; it must not be more (it measures 10).
func TestBatchRunAllocationBound(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool does not retain workspaces under the race detector")
	}
	const parentAllocs = 26
	hg := batchTestGraph(t)
	seeds := batchSeeds(hg.N(), 64)
	for backendName, g := range batchBackends(t, hg) {
		pool := kernel.NewPool(g.N())
		for methodName, method := range batchMethods() {
			bd := kernel.BatchDiffuser{Method: method, Workers: 1}
			run := func() {
				if _, err := bd.Run(context.Background(), g, pool, seeds, nil); err != nil {
					t.Fatalf("%s/%s: %v", backendName, methodName, err)
				}
			}
			run() // fill the pool and grow its workspaces
			if allocs := testing.AllocsPerRun(10, run); allocs > parentAllocs {
				t.Errorf("%s/%s: K=64 Run allocates %v times, parent %d", backendName, methodName, allocs, parentAllocs)
			}
		}
	}
}
