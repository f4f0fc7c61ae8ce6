package api

import (
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"
)

// checkEdgeEncode asserts AppendJSON agrees with json.Marshal on r (on a
// hook-free copy of the type): the same bytes after what dst held, or
// the same *json.UnsupportedValueError. It returns the body, or nil.
func checkEdgeEncode(t testing.TB, r *EdgeBatchRequest) []byte {
	t.Helper()
	want, wantErr := json.Marshal((*plainEdgeBatch)(r))
	got, err := r.AppendJSON([]byte("prefix"))
	sameEncode(t, "EdgeBatchRequest.AppendJSON", got, err, want, wantErr)
	if wantErr != nil {
		return nil
	}
	return want
}

// checkEdgeDecode asserts DecodeJSON agrees with UnmarshalStrict, the
// decode graphd applies to every request body, on data: the same error
// text, or equal requests. Into a used value whose array holds stale
// edges it must decode the same edges, none of them merged with what the
// array held.
func checkEdgeDecode(t testing.TB, data []byte) {
	t.Helper()
	var got, want EdgeBatchRequest
	err, wantErr := got.DecodeJSON(data), UnmarshalStrict(data, &want)
	sameDecode(t, "UnmarshalStrict", data, err, wantErr, got, want)
	stale := slices.Repeat([]StreamEdge{{U: 7, V: 8, W: 9}}, 4)
	used := EdgeBatchRequest{Edges: stale[:1]}
	if err := used.DecodeJSON(data); (err == nil) != (wantErr == nil) || !slices.Equal(used.Edges, want.Edges) {
		t.Fatalf("DecodeJSON(%q) into a used value: %v (err %v), want %v", data, used.Edges, err, want.Edges)
	}
}

// TestEdgeBatchCodec walks what an edge batch can hold: no edges, null
// edges, unit and weighted edges, a negative zero weight (omitted, as
// omitempty omits it), extreme endpoints, weights in both float forms,
// and NaN and infinite weights, refused as json.Marshal refuses them.
// Every body decodes back, with trailing white space too.
func TestEdgeBatchCodec(t *testing.T) {
	for _, r := range []*EdgeBatchRequest{
		{},
		{Edges: []StreamEdge{}},
		{Edges: []StreamEdge{{U: 0, V: 1}}},
		{Edges: []StreamEdge{{U: 3, V: 1, W: 0.25}, {U: 1, V: 3}, {U: 2, V: 2, W: 1e-7}, {U: 9, V: 0, W: 1e21}}},
		{Edges: []StreamEdge{{U: math.MinInt64, V: math.MaxInt64, W: math.Copysign(0, -1)}, {U: -1, V: -2, W: -3}}},
		{Edges: []StreamEdge{{U: 0, V: 1, W: 5e-324}, {U: 0, V: 1, W: math.MaxFloat64}}},
		{Edges: []StreamEdge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: math.NaN()}}},
		{Edges: []StreamEdge{{U: 0, V: 1, W: math.Inf(-1)}}},
	} {
		if body := checkEdgeEncode(t, r); body != nil {
			checkEdgeDecode(t, body)
			checkEdgeDecode(t, append(body, " \r\n\t"...))
		}
	}
}

// TestEdgeBatchFallback feeds the decoder what the SDK does not send.
// What the strict decode tolerates must decode as it does (white space,
// other key order, an explicit zero weight, odd casing, duplicates);
// what it refuses must fail with its words (an unknown member, a float
// or overflowing endpoint, a weight out of range, bytes or a second
// value after the first, broken JSON).
func TestEdgeBatchFallback(t *testing.T) {
	for _, data := range []string{
		`{"edges":[{"u":0,"v":1},{"u":1,"v":2,"w":0.5}]}`,
		` {"edges": [ {"u":0, "v":1} ] }`,
		`{"edges":[{"v":1,"u":0,"w":2}]}`,
		`{"edges":[{"u":0,"v":1,"w":0}]}`,
		`{"edges":[{"u":0,"v":1,"w":-0}]}`,
		`{"Edges":[{"U":0,"V":1}]}`,
		`{"edges":[{"u":0,"v":1}],"edges":[{"u":2,"v":3}]}`,
		`{"edges":[{"u":0,"v":1,"u":4}]}`,
		`{"edges":[{"u":0,"v":1}]}garbage`,
		`{"edges":[{"u":0,"v":1}]}{"edges":[]}`,
		`{"edges":[{"u":0,"v":1,"x":1}]}`,
		`{"edges":[{"u":0,"v":1}],"x":1}`,
		`{"edges":[{"u":0.5,"v":1}]}`,
		`{"edges":[{"u":1e2,"v":1}]}`,
		`{"edges":[{"u":9223372036854775808,"v":1}]}`,
		`{"edges":[{"u":0,"v":1,"w":1e400}]}`,
		`{"edges":[{"u":0,"v":1,"w":"1"}]}`,
		`{"edges":[{"u":0,"v":1,"w":null}]}`,
		`{"edges":[{"u":0,"v":1},]}`,
		`{"edges":[{"u":0,"v":1}`,
		`{"edges":[null,{"u":0,"v":1}]}`,
		`{"edges":{}}`,
		`{"edges":null}`, `{"edges":[]}`, `{}`, `[]`, `null`, ``, ` `, `{`,
	} {
		checkEdgeDecode(t, []byte(data))
	}
	for _, num := range []string{"01", "-01", "-", "+1", "1.", ".5", "1e", "0x10", "NaN"} {
		checkEdgeDecode(t, []byte(`{"edges":[{"u":`+num+`,"v":1}]}`))
		checkEdgeDecode(t, []byte(`{"edges":[{"u":0,"v":1,"w":`+num+`}]}`))
	}
}

// TestEdgeDecodeReusesRoom: a batch decodes into the array it is given
// without allocating when that array has room, and in one allocation
// into an empty value; reflection takes hundreds.
func TestEdgeDecodeReusesRoom(t *testing.T) {
	edges := make([]StreamEdge, 256)
	for i := range edges {
		edges[i] = StreamEdge{U: i, V: 2*i + 1}
		if i%3 == 0 {
			edges[i].W = 0.5 + float64(i)
		}
	}
	body := checkEdgeEncode(t, &EdgeBatchRequest{Edges: edges})
	r := EdgeBatchRequest{Edges: make([]StreamEdge, 0, len(edges))}
	if got := testing.AllocsPerRun(50, func() {
		if err := r.DecodeJSON(body); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("decoding 256 edges into room for them allocates %v times, want 0", got)
	}
	if !slices.Equal(r.Edges, edges) {
		t.Fatalf("decoded %v, want %v", r.Edges, edges)
	}
	if got := testing.AllocsPerRun(50, func() {
		r = EdgeBatchRequest{}
		if err := r.DecodeJSON(body); err != nil {
			t.Fatal(err)
		}
	}); got > 1 {
		t.Errorf("decoding 256 edges into an empty value allocates %v times, want 1", got)
	}
}

// batchFromBytes builds an edge batch out of fuzz input: eight bytes a
// number, so every int and every weight bit pattern is reachable, the
// low bits of the first choosing nil edges, the count, and which edges
// carry a weight.
func batchFromBytes(data []byte) *EdgeBatchRequest {
	next := numbers(&data)
	shape := next()
	if shape&1 == 0 {
		return &EdgeBatchRequest{}
	}
	r := &EdgeBatchRequest{Edges: make([]StreamEdge, shape>>1&7)}
	for i := range r.Edges {
		r.Edges[i] = StreamEdge{U: int(next()), V: int(next())}
		if shape>>(8+i)&1 != 0 {
			r.Edges[i].W = math.Float64frombits(next())
		}
	}
	return r
}

// FuzzEdgeBatchCodec is the differential test of the edge-batch codec.
// The input is used twice: as a request body, which DecodeJSON must
// treat exactly as the strict library decode does, in value and error
// text; and as the raw material of a batch, which AppendJSON must encode
// to json.Marshal's bytes or refuse with its error, and DecodeJSON must
// read back.
func FuzzEdgeBatchCodec(f *testing.F) {
	for _, r := range []*EdgeBatchRequest{{}, {Edges: []StreamEdge{}}, {Edges: []StreamEdge{{U: 1, V: 2}, {U: 40, V: 3, W: 0.125}}}} {
		body, _ := r.AppendJSON(nil)
		f.Add(body)
	}
	f.Add([]byte(`{"edges":[{"u":01,"v":1}]}`))
	f.Add([]byte(`{"edges":[{"v":1,"u":0,"w":1e-07}],"x":0}`))
	f.Add([]byte("\x03\x03\x00\x00\x00\x00\x00\x00" + strings.Repeat("\x01\x00\x00\x00\x00\x00\xf0\x7f", 4)))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkEdgeDecode(t, data)
		if body := checkEdgeEncode(t, batchFromBytes(data)); body != nil {
			checkEdgeDecode(t, body)
		}
	})
}
