package service

import (
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// TestSweepCutPinned pins the sweepcut reply bytes for the corners of
// the order rule: nodes by value/degree descending, ties by node id,
// zero and negative values kept (negatives after every non-negative,
// −0 equal to +0), zero-degree nodes dropped. The values were recorded
// from graphd's map-based sweep on a 12-cycle (and on the same cycle
// with two isolated nodes appended); any sweep implementation must
// answer the same bytes. The two error rows pin that the first bad
// entry in request order decides the error.
func TestSweepCutPinned(t *testing.T) {
	srv, ts, _ := testServer(t, Config{})
	if _, err := srv.Store().Put("cycle", gen.Cycle(12)); err != nil {
		t.Fatal(err)
	}
	b := graph.NewBuilder(14)
	for u := 0; u < 12; u++ {
		b.AddEdge(u, (u+1)%12)
	}
	iso, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Store().Put("cycle-iso", iso); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		graph, values string
		status        int
		want          string
	}{
		// Zero-mass nodes sort last among the non-negatives and are
		// inside the best cut.
		{"cycle", `[{"node":0,"mass":1},{"node":1,"mass":0.5},{"node":2,"mass":0},{"node":3,"mass":0},{"node":4,"mass":0},{"node":5,"mass":0}]`, http.StatusOK,
			`{"set":[0,1,2,3,4,5],"size":6,"conductance":0.16666666666666666,"prefix":6}`},
		{"cycle", `[{"node":0,"mass":0},{"node":1,"mass":0}]`, http.StatusOK,
			`{"set":[0,1],"size":2,"conductance":0.5,"prefix":2}`},
		// Negative masses sweep after the non-negative ones, the
		// smallest magnitude first.
		{"cycle", `[{"node":6,"mass":-1},{"node":2,"mass":-0.2},{"node":1,"mass":0.5},{"node":0,"mass":1}]`, http.StatusOK,
			`{"set":[0,1,2],"size":3,"conductance":0.3333333333333333,"prefix":3}`},
		// −0 ties with +0: node id decides.
		{"cycle", `[{"node":2,"mass":0},{"node":1,"mass":-0},{"node":0,"mass":0}]`, http.StatusOK,
			`{"set":[0,1,2],"size":3,"conductance":0.3333333333333333,"prefix":3}`},
		// Exact value ties sweep in node order.
		{"cycle", `[{"node":3,"mass":0.5},{"node":1,"mass":0.5},{"node":2,"mass":0.5}]`, http.StatusOK,
			`{"set":[1,2,3],"size":3,"conductance":0.3333333333333333,"prefix":3}`},
		{"cycle", `[{"node":5,"mass":0.5},{"node":0,"mass":1},{"node":4,"mass":0.5}]`, http.StatusOK,
			`{"set":[0,4,5],"size":3,"conductance":0.6666666666666666,"prefix":3}`},
		// Zero-degree nodes are dropped from the order.
		{"cycle-iso", `[{"node":12,"mass":1},{"node":0,"mass":0.5},{"node":13,"mass":0.7},{"node":1,"mass":0.25}]`, http.StatusOK,
			`{"set":[0,1],"size":2,"conductance":0.5,"prefix":2}`},
		{"cycle-iso", `[{"node":12,"mass":1},{"node":13,"mass":0.5}]`, http.StatusBadRequest,
			`{"error":{"code":"invalid_argument","message":"local: sweep support has only zero-degree nodes"}}`},
		{"cycle", `[{"node":1,"mass":1},{"node":1,"mass":0.5},{"node":12,"mass":1}]`, http.StatusBadRequest,
			`{"error":{"code":"invalid_argument","message":"node 1 appears twice"}}`},
		{"cycle", `[{"node":12,"mass":1},{"node":1,"mass":1},{"node":1,"mass":0.5}]`, http.StatusBadRequest,
			`{"error":{"code":"invalid_argument","message":"node 12 out of range [0,12)"}}`},
	} {
		req := json.RawMessage(`{"values":` + c.values + `}`)
		status, body, _ := postWire(t, ts.URL+"/v1/graphs/"+c.graph+"/sweepcut", req)
		if status != c.status || string(body) != c.want+"\n" {
			t.Errorf("%s %s: status %d\n%s\nwant %d\n%s", c.graph, c.values, status, body, c.status, c.want)
		}
	}
}
