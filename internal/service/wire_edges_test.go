package service

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

func invalidReply(msg string) string {
	return `{"error":{"code":"invalid_argument","message":"` + msg + `"}}`
}

// appendEdgesCases are POST /v1/graphs/s/edges bodies against a 4-node
// stream with the status and reply each must get. FuzzAPIDecode seeds
// its edges corpus from them.
var appendEdgesCases = []struct {
	name, body string
	status     int
	reply      string
}{
	{"canonical", `{"edges":[{"u":0,"v":1},{"u":1,"v":2,"w":0.5}]}`, 200, `{"appended":2}`},
	{"white space", " { \"edges\" : [ { \"u\" : 0 ,\n\t\"v\" : 1 } ] } \r\n", 200, `{"appended":1}`},
	{"reordered keys", `{"edges":[{"w":2,"v":3,"u":2}]}`, 200, `{"appended":1}`},
	{"zero weight", `{"edges":[{"u":0,"v":1,"w":0}]}`, 200, `{"appended":1}`},
	{"explicit weights", `{"edges":[{"u":0,"v":1,"w":1},{"u":0,"v":2,"w":1e-3}]}`, 200, `{"appended":2}`},
	{"other casing", `{"EDGES":[{"U":0,"V":3}]}`, 200, `{"appended":1}`},
	{"trailing garbage", `{"edges":[{"u":0,"v":1}]}garbage`, 400, invalidReply(`params: invalid character 'g' after top-level value`)},
	{"second value", `{"edges":[{"u":0,"v":1}]} {"edges":[]}`, 400, invalidReply(`params: invalid character '{' after top-level value`)},
	{"unknown field", `{"edges":[{"u":0,"v":1,"x":1}]}`, 400, invalidReply(`params: json: unknown field \"x\"`)},
	{"unknown top-level field", `{"edges":[{"u":0,"v":1}],"nodes":4}`, 400, invalidReply(`params: json: unknown field \"nodes\"`)},
	{"float endpoint", `{"edges":[{"u":0.5,"v":1}]}`, 400, invalidReply(`params: json: cannot unmarshal number 0.5 into Go struct field StreamEdge.edges.u of type int`)},
	{"int overflow", `{"edges":[{"u":9223372036854775808,"v":1}]}`, 400, invalidReply(`params: json: cannot unmarshal number 9223372036854775808 into Go struct field StreamEdge.edges.u of type int`)},
	{"weight overflow", `{"edges":[{"u":0,"v":1,"w":1e400}]}`, 400, invalidReply(`params: json: cannot unmarshal number 1e400 into Go struct field StreamEdge.edges.w of type float64`)},
	{"negative endpoint", `{"edges":[{"u":0,"v":1},{"u":-1,"v":1}]}`, 400, invalidReply(`edge 1 (-1,1) has a negative endpoint`)},
	{"endpoint out of range", `{"edges":[{"u":0,"v":1},{"u":0,"v":4}]}`, 400, invalidReply(`edge 1 (0,4) out of range [0,4)`)},
	{"negative weight", `{"edges":[{"u":0,"v":1,"w":-2}]}`, 400, invalidReply(`edge 0 (0,1) has negative weight -2`)},
	{"truncated", `{"edges":[{"u":0,`, 400, invalidReply(`params: unexpected EOF`)},
	{"array", `[]`, 400, invalidReply(`params: json: cannot unmarshal array into Go value of type api.EdgeBatchRequest`)},
	{"null", `null`, 400, invalidReply(`edge batch is empty`)},
	{"empty object", `{}`, 400, invalidReply(`edge batch is empty`)},
	{"no edges", `{"edges":[]}`, 400, invalidReply(`edge batch is empty`)},
	{"null edges", `{"edges":null}`, 400, invalidReply(`edge batch is empty`)},
	{"empty body", ``, 400, invalidReply(`edge batch is empty`)},
}

// TestAppendEdgesWireContract pins what POST /v1/graphs/{name}/edges
// answers to bodies the SDK never sends: the status and the exact reply
// bytes, errors included, are those of the strict library decode, which
// refuses bytes after the value in json.Unmarshal's words. No body
// yields a 5xx, and a refused batch leaves the stream's edge count where
// it was.
func TestAppendEdgesWireContract(t *testing.T) {
	srv, ts, c := testServer(t, Config{})
	if _, err := c.Graphs.Stream(ctx(), "s", 4); err != nil {
		t.Fatal(err)
	}
	for _, tc := range appendEdgesCases {
		t.Run(tc.name, func(t *testing.T) {
			before, err := srv.Store().Info("s")
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(ts.URL+"/v1/graphs/s/edges", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode >= 500 {
				t.Fatalf("%q: status %d", tc.body, resp.StatusCode)
			}
			after, err := srv.Store().Info("s")
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode == 400 && after.Edges != before.Edges {
				t.Fatalf("refused batch moved the edge count %d -> %d", before.Edges, after.Edges)
			}
			if resp.StatusCode != tc.status || strings.TrimSuffix(string(body), "\n") != tc.reply {
				t.Errorf("%q: %d %s, want %d %s", tc.body, resp.StatusCode, body, tc.status, tc.reply)
			}
		})
	}
}
