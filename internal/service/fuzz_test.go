package service

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/gstore"
	"repro/pkg/api"
)

// fuzzEndpoints are the request bodies FuzzAPIDecode drives: every
// synchronous query on the sealed graph "ring", stream creation, and
// edge appends to the 4-node stream "s". generate and the job
// endpoints are left out: their cost is bounded only by size caps.
var fuzzEndpoints = []string{
	"/v1/graphs/ring/ppr",
	"/v1/graphs/ring/ppr:batch",
	"/v1/graphs/ring/localcluster",
	"/v1/graphs/ring/localcluster:batch",
	"/v1/graphs/ring/diffuse",
	"/v1/graphs/ring/sweepcut",
	"/v1/graphs/fz/stream",
	"/v1/graphs/s/edges",
}

// FuzzAPIDecode posts arbitrary bodies to graphd's decode → Validate →
// Normalize → execute path, one in-process server for the whole run.
// Whatever the body, the server must not panic or answer 5xx, and every
// refusal must be an api.Error envelope with a known code whose status
// is the one it travelled with. The one 5xx allowed is 504
// deadline_exceeded: a valid body can ask for unbounded work (α = 1e-9
// push, a lazy walk of 1e12 steps) and the deadline is what bounds it.
// A short deadline keeps such bodies cheap.
func FuzzAPIDecode(f *testing.F) {
	srv, err := NewServer(Config{OpLog: log.New(io.Discard, "", 0), QueryTimeout: 50 * time.Millisecond})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(srv.Close)
	if _, err := srv.Store().Put("ring", gstore.Wrap(gen.RingOfCliques(8, 8))); err != nil {
		f.Fatal(err)
	}
	if _, err := srv.Store().BeginStream("s", 4); err != nil {
		f.Fatal(err)
	}
	h := srv.Handler()

	for i, body := range []string{
		`{"seeds":[0],"alpha":0.15,"eps":1e-4,"topk":5,"sweep":true}`,
		`{"seeds":[0,9,63],"alpha":0.1,"eps":1e-3,"topk":3,"sweep":true}`,
		`{"method":"nibble","seeds":[3],"eps":1e-4,"steps":10}`,
		`{"method":"heat","seeds":[1,2],"eps":1e-4,"t":5}`,
		`{"kind":"lazy","seeds":[0],"alpha":0.5,"k":4,"topk":3}`,
		`{"values":[{"node":1,"mass":0.5},{"node":2,"mass":0.25}]}`,
		`{"nodes":4}`,
	} {
		f.Add(uint8(i), []byte(body))
	}
	// Valid bodies whose work only the deadline bounds.
	f.Add(uint8(0), []byte(`{"seeds":[0,1],"alpha":1e-9}`))
	f.Add(uint8(4), []byte(`{"kind":"lazy","seeds":[0],"k":1000000000000}`))
	// A heat time far past the bound, where the dense series overflows
	// into NaN.
	f.Add(uint8(4), []byte(`{"kind":"heat","seeds":[0],"t":5e5}`))
	// A second value after the first, refused rather than ignored.
	f.Add(uint8(0), []byte(`{"seeds":[1]}{"seeds":[2]}`))
	edges := uint8(len(fuzzEndpoints) - 1)
	for _, tc := range appendEdgesCases {
		f.Add(edges, []byte(tc.body))
	}

	f.Fuzz(func(t *testing.T, endpoint uint8, body []byte) {
		path := fuzzEndpoints[int(endpoint)%len(fuzzEndpoints)]
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		srv.Store().Delete("fz") // so every stream body is tried on a free name
		if rec.Code >= 500 && rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("%s %q: status %d: %s", path, body, rec.Code, rec.Body.Bytes())
		}
		if rec.Code < 400 {
			return
		}
		var env api.ErrorEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error == nil {
			t.Fatalf("%s %q: status %d with no error envelope (%v): %s", path, body, rec.Code, err, rec.Body.Bytes())
		}
		// Codes and statuses map one to one, so this also refuses a code
		// outside the vocabulary.
		if api.CodeForStatus(rec.Code) != env.Error.Code {
			t.Fatalf("%s %q: status %d carries code %q", path, body, rec.Code, env.Error.Code)
		}
	})
}
