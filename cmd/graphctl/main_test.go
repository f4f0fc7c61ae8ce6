package main

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/service"
	"repro/pkg/api"
	"repro/pkg/client"
)

// TestEveryCommand drives each graphctl command through run(argv) with
// -json against an in-process graphd, in an order where later rows use
// what earlier rows made. Every row must exit 0, and its reply must
// decode as JSON unless the row names the text it holds or the file it
// goes to. A command in the commands table without a row fails the
// test, so a new command comes with its row.
func TestEveryCommand(t *testing.T) {
	srv, err := service.NewServer(service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	edgeList := write("edges.txt", "0 1\n1 2\n2 0\n2 3\n3 4\n4 2\n")
	batch := write("batch.txt", "0 1\n1 2\n2 3\n")
	vector := write("vector.txt", "0 0.5\n1 0.3\n2 0.2\n")
	snap := filepath.Join(dir, "ring.gsnap")

	// j1 is a long job for `job cancel`: queued or running, never done
	// by the time that row runs. j2 is the ncp row's job.
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := c.Graphs.Generate(ctx, "big", api.GenerateRequest{Family: "kronecker", Levels: 10}); err != nil {
		t.Fatal(err)
	}
	long, err := api.NewJob("ncp", "big", &api.NCPJobParams{Method: "both", Seeds: 200})
	if err != nil {
		t.Fatal(err)
	}
	if v, err := c.Jobs.Submit(ctx, long); err != nil || v.ID != "j1" {
		t.Fatalf("long job: %+v, %v", v, err)
	}

	rows := []struct {
		args []string
		text string // the reply is text holding this, not JSON
		file string // the reply goes to this file, not stdout
	}{
		{args: []string{"job", "cancel", "j1"}},
		{args: []string{"health"}},
		{args: []string{"generate", "ring", "-family", "ring_of_cliques", "-k", "4", "-clique-n", "5"}},
		{args: []string{"load", "small", edgeList}},
		{args: []string{"stream", "inc", "-nodes", "4"}},
		{args: []string{"edges", "inc", batch}},
		{args: []string{"seal", "inc"}},
		{args: []string{"graphs"}},
		{args: []string{"graph", "get", "ring"}},
		{args: []string{"graph", "export", "ring", snap}, file: snap},
		{args: []string{"graph", "import", "copy", snap}},
		{args: []string{"stats", "copy"}},
		{args: []string{"ppr", "ring", "-seeds", "0", "-alpha", "0.1", "-sweep", "-work"}},
		{args: []string{"ppr-batch", "ring", "-seeds", "0,5", "-alpha", "0.1"}},
		{args: []string{"localcluster", "ring", "-method", "nibble", "-seeds", "0"}},
		{args: []string{"diffuse", "ring", "-kind", "heat", "-seeds", "0"}},
		{args: []string{"sweepcut", "small", vector}},
		{args: []string{"ncp", "ring", "-method", "spectral", "-seeds", "2"}},
		{args: []string{"partition", "ring", "-k", "2"}},
		{args: []string{"jobs"}},
		{args: []string{"job", "get", "j2"}},
		{args: []string{"job", "wait", "j2"}},
		{args: []string{"job", "result", "j2"}},
		{args: []string{"debug", "queries"}},
		{args: []string{"debug", "metrics", "graphd_cache"}, text: "graphd_cache"},
		{args: []string{"metrics"}, text: "graphd_"},
		{args: []string{"delete", "copy"}},
	}
	covered := map[string]bool{}
	for _, row := range rows {
		covered[row.args[0]] = true
		code, out := runCaptured(t, append([]string{"-server", ts.URL, "-json"}, row.args...))
		if code != 0 {
			t.Fatalf("graphctl %s: exit %d, stdout:\n%s", strings.Join(row.args, " "), code, out)
		}
		if row.file != "" {
			if fi, err := os.Stat(row.file); err != nil || fi.Size() == 0 {
				t.Errorf("graphctl %s: no reply in %s: %v", strings.Join(row.args, " "), row.file, err)
			}
			continue
		}
		if row.text != "" {
			if !strings.Contains(out, row.text) {
				t.Errorf("graphctl %s: reply lacks %q:\n%s", strings.Join(row.args, " "), row.text, out)
			}
			continue
		}
		var v any
		if err := json.Unmarshal([]byte(out), &v); err != nil {
			t.Errorf("graphctl %s: reply does not decode: %v\n%s", strings.Join(row.args, " "), err, out)
		}
	}
	for name := range commands {
		if !covered[name] {
			t.Errorf("command %q has no row", name)
		}
	}
}

// runCaptured calls run(argv) with stdout sent to a file and returns the
// exit code and what was printed.
func runCaptured(t *testing.T, argv []string) (int, string) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	code := func() int {
		defer func() { os.Stdout = saved }()
		return run(argv)
	}()
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(out)
}
