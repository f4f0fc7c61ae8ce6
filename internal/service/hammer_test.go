package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/gen"
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
	if _, err := srv.Store().Put("cave", gen.Caveman(6, 6)); err != nil {
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

// TestSizeClassSharedAcrossGraphs: four goroutines query two graphs of
// one workspace size class (3 900 and 4 096 nodes) while a fifth seals,
// queries and deletes a third graph of that class over and over, so
// every workspace passes between graphs of different node counts. Run
// under -race (CI does, ten times over) it checks that the shared class
// hands each workspace to one holder at a time; every ppr (with its
// sweep) and nibble localcluster reply must equal the one computed
// serially before.
func TestSizeClassSharedAcrossGraphs(t *testing.T) {
	s, err := NewGraphStore("", "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	put := func(name string, n int, seed int64) error {
		hg, err := gen.ForestFire(gen.ForestFireConfig{N: n, FwdProb: 0.35, Ambs: 1}, rand.New(rand.NewSource(seed)))
		if err == nil {
			_, err = s.Put(name, hg)
		}
		return err
	}
	if err := errors.Join(put("a", 3900, 1), put("b", 4096, 2)); err != nil {
		t.Fatal(err)
	}
	const seeds = 12
	reply := func(name string, seed int) string {
		g, _, err := s.Get(name)
		if err != nil {
			return err.Error()
		}
		ppr := api.PPRRequest{Seeds: []int{seed * 97}, Sweep: true}
		ppr.Normalize()
		pr, _, err := execPPR(context.Background(), g, ppr, false)
		if err != nil {
			return err.Error()
		}
		lc := api.LocalClusterRequest{Seeds: []int{seed * 89}, Method: "nibble"}
		lc.Normalize()
		cr, _, err := execLocalCluster(context.Background(), g, lc, false)
		if err != nil {
			return err.Error()
		}
		body, err := json.Marshal([]any{json.RawMessage(pr), json.RawMessage(cr)})
		if err != nil {
			return err.Error()
		}
		return string(body)
	}
	want := map[string][]string{}
	for _, name := range []string{"a", "b"} {
		for seed := range seeds {
			want[name] = append(want[name], reply(name, seed))
		}
	}

	done, churned := make(chan struct{}), make(chan struct{})
	go func() { // the third graph, sealed and deleted until the readers finish
		defer close(churned)
		for cycle := 0; ; cycle++ {
			if err := put("c", 3841+cycle%255, int64(3+cycle)); err != nil {
				t.Error(err)
				return
			}
			reply("c", cycle%seeds)
			if err := s.Delete("c"); err != nil {
				t.Error(err)
				return
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 2 * seeds {
				name, seed := []string{"a", "b"}[(w+i)%2], (w*5+i)%seeds
				if got := reply(name, seed); got != want[name][seed] {
					t.Errorf("worker %d: %s seed %d replied\n%.300s\nserially\n%.300s", w, name, seed, got, want[name][seed])
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	<-churned
}
