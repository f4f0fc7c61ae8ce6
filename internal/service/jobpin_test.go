package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"repro/pkg/api"
	"repro/pkg/client"
)

// TestJobResultsPinned runs an ncp job with both halves and a partition
// job with labels on two graphs, an unweighted forest fire and a graph
// with float64 weights, each served compact and, imported from its
// export, served off a mapping. The result bytes must be equal across
// the two backends and equal to the pinned sha256, so neither a change
// of backend nor a change in how a job reads its graph can move a job's
// result unseen.
func TestJobResultsPinned(t *testing.T) {
	ctx := context.Background()
	_, _, c := testServer(t, Config{DataDir: t.TempDir(), JobWorkers: 2})
	if _, err := c.Graphs.Generate(ctx, "ff", api.GenerateRequest{Family: "forestfire", N: 400, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	var edges strings.Builder
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&edges, "%d %d %g\n", i, (i+1)%300, 1+0.1*float64(i%7))
		fmt.Fprintf(&edges, "%d %d %g\n", i, (i*37+11)%300, 0.25*float64(1+i%3))
	}
	if _, err := c.Graphs.Load(ctx, "wt", strings.NewReader(edges.String())); err != nil {
		t.Fatal(err)
	}
	jobs := []struct {
		typ    string
		params api.Request
		sha256 map[string]string // by graph
	}{
		{"ncp", &api.NCPJobParams{Method: "both", Seeds: 4, Workers: 2, BaseSeed: 5}, map[string]string{
			"ff": "85483ed33097bef59ac26d8a755a8e8239a94f99345b95ee06377bda85e8e1dd",
			"wt": "cd85ec7d211939ee4e6a8dbd0173fafe47db44e4213642a87b3c757c413fc021",
		}},
		{"partition", &api.PartitionJobParams{K: 4, IncludeLabels: true}, map[string]string{
			"ff": "ce16e1e3a12dab659a0e5d8a60f14d6c07689230b731f947f487847e1f63e4a2",
			"wt": "562b692f9a0beab27c7782328a058c48f078424287da5bf5fe1dfae2dd60de71",
		}},
	}
	for _, name := range []string{"ff", "wt"} {
		var snap bytes.Buffer
		if _, err := c.Graphs.Export(ctx, name, &snap); err != nil {
			t.Fatal(err)
		}
		mapped := name + "-mmap"
		if _, err := c.Graphs.Import(ctx, mapped, &snap, client.WithBackend(api.BackendMmap)); err != nil {
			t.Fatal(err)
		}
		for g, want := range map[string]api.GraphBackend{name: api.BackendCompact, mapped: api.BackendMmap} {
			info, err := c.Graphs.Get(ctx, g)
			if err != nil {
				t.Fatal(err)
			}
			if info.Backend != want {
				t.Fatalf("%s is served from %q, want %q", g, info.Backend, want)
			}
		}
		for _, j := range jobs {
			var results [][]byte
			for _, g := range []string{name, mapped} {
				req, err := api.NewJob(j.typ, g, j.params)
				if err != nil {
					t.Fatal(err)
				}
				v, err := c.Jobs.Submit(ctx, req)
				if err != nil {
					t.Fatal(err)
				}
				if v, err = c.Jobs.Wait(ctx, v.ID); err != nil || v.Status != api.JobDone {
					t.Fatalf("%s job on %s: %+v, %v", j.typ, g, v, err)
				}
				raw, err := c.Jobs.ResultRaw(ctx, v.ID)
				if err != nil {
					t.Fatal(err)
				}
				results = append(results, raw)
			}
			if !bytes.Equal(results[0], results[1]) {
				t.Errorf("%s job results on %s differ across backends:\ncompact %s\nmmap    %s", j.typ, name, results[0], results[1])
			}
			sum := sha256.Sum256(results[0])
			if got := hex.EncodeToString(sum[:]); got != j.sha256[name] {
				t.Errorf("%s job result on %s: sha256 %s, want %s", j.typ, name, got, j.sha256[name])
			}
		}
	}
}
