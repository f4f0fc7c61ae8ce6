package service

import (
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/gstore"
	"repro/internal/promtext"
	"repro/pkg/api"
)

// TestJobGaugesOnMetrics locks satellite contract: the JobManager's
// Depths gauges are exported as graphd_jobs_{queued,running} gauges and
// the graphd_jobs_finished_total counter, and the queue-wait histogram
// appears once a job has run.
func TestJobGaugesOnMetrics(t *testing.T) {
	_, _, c := testServer(t, Config{JobWorkers: 1})
	jreq, err := api.NewJob("partition", "ring", &api.PartitionJobParams{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.Jobs.Submit(ctx(), jreq)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Jobs.Wait(ctx(), v.ID); err != nil {
		t.Fatal(err)
	}
	text, err := c.Metrics(ctx())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE graphd_jobs_queued gauge",
		"graphd_jobs_queued 0",
		"# TYPE graphd_jobs_running gauge",
		"graphd_jobs_running 0",
		"# TYPE graphd_jobs_finished_total counter",
		"graphd_jobs_finished_total 1",
		"# TYPE graphd_job_queue_wait_seconds histogram",
		`graphd_job_queue_wait_seconds_count{type="partition"} 1`,
		`graphd_job_seconds_count{type="partition"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestPersistHistogramsOnMetrics boots a durable server, exercises the
// full durability surface (snapshot write on Put, WAL fsync on append,
// recovery replay + snapshot load on reboot) and asserts every
// graphd_persist_*_seconds histogram and _bytes_total counter shows up
// with consistent counts.
func TestPersistHistogramsOnMetrics(t *testing.T) {
	dir := t.TempDir()
	_, _, c := testServer(t, Config{DataDir: dir})
	if _, err := c.Graphs.Stream(ctx(), "s", 10); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Graphs.AppendEdges(ctx(), "s", []api.StreamEdge{{U: 0, V: 1}, {U: 1, V: 2}}); err != nil {
		t.Fatal(err)
	}
	text, err := c.Metrics(ctx())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE graphd_persist_snapshot_write_seconds histogram",
		"graphd_persist_snapshot_write_seconds_count 1", // "ring" fixture Put
		"# TYPE graphd_persist_snapshot_write_bytes_total counter",
		"# TYPE graphd_persist_wal_fsync_seconds histogram",
		"graphd_persist_wal_fsync_seconds_count 1",
		"# TYPE graphd_persist_wal_fsync_bytes_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if strings.Contains(text, "graphd_persist_recovery_seconds_count") {
		t.Error("recovery histogram present before any recovery ran")
	}

	// Reboot on the same data dir: recovery replays the WAL and loads
	// the snapshot, and both land in the fresh server's histograms.
	_, _, c2 := testServer(t, Config{DataDir: dir})
	text, err = c2.Metrics(ctx())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE graphd_persist_recovery_seconds histogram",
		"graphd_persist_recovery_seconds_count 1",
		"# TYPE graphd_persist_recovery_bytes_total counter",
		"# TYPE graphd_persist_snapshot_load_seconds histogram",
		"graphd_persist_snapshot_load_seconds_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("post-recovery metrics missing %q", want)
		}
	}
}

// TestGstoreFamiliesOnMetrics asserts the storage telemetry families
// render on every server (they are process-wide atomics, so only
// presence and parseability are stable across parallel tests) and that
// a served mmap graph labels its work histograms backend="mmap".
func TestGstoreFamiliesOnMetrics(t *testing.T) {
	dir := t.TempDir()
	_, _, c := testServer(t, Config{DataDir: dir, Backend: "mmap"})
	if _, err := c.Graphs.PPR(ctx(), "ring", api.PPRRequest{Seeds: []int{0}}); err != nil {
		t.Fatal(err)
	}
	text, err := c.Metrics(ctx())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE graphd_gstore_mapped_bytes gauge",
		"# TYPE graphd_gstore_mapped_graphs gauge",
		"# TYPE graphd_gstore_finalizer_unmaps_total counter",
		"# TYPE graphd_gstore_heap_materializations_total counter",
		"# TYPE graphd_gstore_open_verifies_total counter",
		"# TYPE graphd_gstore_open_verify_seconds_total counter",
		`graphd_query_pushes_count{method="push",cache="miss",backend="mmap"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if errs := promtext.Lint(strings.NewReader(text)); len(errs) != 0 {
		for _, e := range errs {
			t.Errorf("promtext: %v", e)
		}
	}
}

// TestTelemetryUnderConcurrentMmapDelete races queries against
// delete/re-create cycles of an mmap-backed graph: every query must
// either answer or fail with a not-found/conflict error, the telemetry
// sinks must keep accepting observations, and the final exposition must
// still lint clean. The -race CI job gives this test its teeth.
func TestTelemetryUnderConcurrentMmapDelete(t *testing.T) {
	dir := t.TempDir()
	srv, ts, c := testServer(t, Config{DataDir: dir, Backend: "mmap"})
	rng := rand.New(rand.NewSource(11))
	er, err := gen.ErdosRenyi(150, 0.05, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Store().Put("victim", gstore.Wrap(er)); err != nil {
		t.Fatal(err)
	}

	const queriers = 4
	const rounds = 20
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for q := 0; q < queriers; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Vary the seed so queries miss the cache and walk the
				// (possibly deleted-under-us) mapped adjacency.
				_, err := c.Graphs.PPR(ctx(), "victim", api.PPRRequest{Seeds: []int{(q*31 + i) % 150}})
				if err != nil && !api.IsNotFound(err) && !api.IsConflict(err) {
					t.Errorf("querier %d: unexpected error class: %v", q, err)
					return
				}
			}
		}(q)
	}
	for r := 0; r < rounds; r++ {
		if err := srv.Store().Delete("victim"); err != nil {
			t.Fatalf("round %d: delete: %v", r, err)
		}
		if _, err := srv.Store().Put("victim", gstore.Wrap(er)); err != nil {
			t.Fatalf("round %d: re-create: %v", r, err)
		}
	}
	close(stop)
	wg.Wait()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if errs := promtext.Lint(resp.Body); len(errs) != 0 {
		for _, e := range errs {
			t.Errorf("promtext after delete race: %v", e)
		}
	}
}

// TestWorkHistogramBackendLabel pins the per-backend dimension: the
// same query on compact- and mmap-served graphs lands in separate
// histogram series.
func TestWorkHistogramBackendLabel(t *testing.T) {
	srv, _, c := testServer(t, Config{DataDir: t.TempDir()})
	if _, err := srv.Store().PutWithBackend("ring-mmap", gstore.Wrap(gen.RingOfCliques(8, 8)), "mmap"); err != nil {
		t.Fatal(err)
	}
	for _, g := range []string{"ring", "ring-mmap"} {
		if _, err := c.Graphs.PPR(ctx(), g, api.PPRRequest{Seeds: []int{0}}); err != nil {
			t.Fatal(err)
		}
	}
	text, err := c.Metrics(ctx())
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []string{"compact", "mmap"} {
		want := fmt.Sprintf(`graphd_query_pushes_count{method="push",cache="miss",backend=%q} 1`, backend)
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
