package service

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/gstore"
	"repro/pkg/api"
)

// TestConcurrentHammer drives the store, cache, singleflight group and
// job queue from 32 goroutines at once, all through the pkg/client SDK.
// Run under -race (CI does) it is the service layer's data-race
// detector; functionally it asserts that every call either succeeds or
// fails with an expected API error code, and that the server survives
// to answer a final health check.
func TestConcurrentHammer(t *testing.T) {
	srv, _, c := testServer(t, Config{JobWorkers: 4, JobQueue: 4096, CacheEntries: 64})
	if _, err := srv.Store().Put("cave", gstore.Wrap(gen.Caveman(6, 6))); err != nil {
		t.Fatal(err)
	}

	const goroutines = 32
	const opsPer = 25
	var wg sync.WaitGroup
	errc := make(chan error, goroutines*opsPer)
	bg := context.Background()

	// allow tolerates the listed API error codes (contention outcomes
	// like name conflicts are expected under the hammer).
	allow := func(err error, codes ...api.ErrorCode) error {
		if err == nil {
			return nil
		}
		for _, code := range codes {
			if api.IsCode(err, code) {
				return nil
			}
		}
		return err
	}

	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			mine := fmt.Sprintf("g%d", gi)
			for op := 0; op < opsPer; op++ {
				var err error
				switch op % 9 {
				case 0: // query a shared graph: cache + singleflight contention
					_, err = c.Graphs.PPR(bg, "ring", api.PPRRequest{
						Seeds: []int{op % 64}, Alpha: 0.1,
					})
				case 1: // distinct params: cache fill + eviction churn
					_, err = c.Graphs.LocalCluster(bg, "cave", api.LocalClusterRequest{
						Seeds: []int{(gi*opsPer + op) % 36}, Eps: 1e-4,
					})
				case 2: // private graph create/delete cycle
					_, err = c.Graphs.Generate(bg, mine, api.GenerateRequest{
						Family: "grid", Rows: 2, Cols: 2,
					})
					if err = allow(err, api.CodeConflict); err == nil {
						err = allow(c.Graphs.Delete(bg, mine), api.CodeNotFound)
					}
				case 3: // streaming lifecycle on a private name
					name := fmt.Sprintf("s%d-%d", gi, op)
					if _, err = c.Graphs.Stream(bg, name, 4); err == nil {
						if _, err = c.Graphs.AppendEdges(bg, name, []api.StreamEdge{
							{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3},
						}); err == nil {
							_, err = c.Graphs.Seal(bg, name)
						}
					}
				case 4: // tiny NCP jobs: queue + result cache contention
					var req api.JobSubmitRequest
					req, err = api.NewJob("ncp", "ring", &api.NCPJobParams{
						Method: "spectral", Seeds: 2, BaseSeed: int64(1 + op%3),
					})
					if err == nil {
						_, err = c.Jobs.Submit(bg, req)
					}
				case 5:
					_, err = c.Jobs.List(bg)
				case 6:
					_, err = c.Metrics(bg)
				case 7:
					_, err = c.Graphs.List(bg)
				case 8: // case 0's keys as a batch: single-seed and batch
					// requests join each other's flights
					_, err = c.Graphs.PPRBatch(bg, "ring", api.PPRBatchRequest{
						Seeds: []int{0, 9, 18, (op + 1) % 64}, Alpha: 0.1,
					})
				}
				if err != nil {
					errc <- fmt.Errorf("g%d op%d: %w", gi, op, err)
				}
			}
		}(gi)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	if h, err := c.Health(bg); err != nil || h.Status != "ok" {
		t.Fatalf("health after hammer: %+v, %v", h, err)
	}

	// Every submitted job must reach a terminal state.
	jobs, err := c.Jobs.List(bg)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if _, err := c.Jobs.Wait(bg, j.ID); err != nil {
			t.Errorf("job %s: %v", j.ID, err)
		}
	}
}
