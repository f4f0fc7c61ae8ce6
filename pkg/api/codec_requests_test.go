package api

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestUnmarshalStrict pins the decode the request codecs are checked
// against: one value, no unknown member, nothing but white space after.
func TestUnmarshalStrict(t *testing.T) {
	for data, want := range map[string]string{
		"{\"seeds\":[1]} \r\n\t":     "",
		`{"seeds":[1],"x":1}`:        `json: unknown field "x"`,
		`{"seeds":[1]} junk`:         "invalid character 'j' after top-level value",
		`{"seeds":[1]}{"seeds":[2]}`: "invalid character '{' after top-level value",
		`null ]`:                     "invalid character ']' after top-level value",
	} {
		var r PPRRequest
		err := UnmarshalStrict([]byte(data), &r)
		if got := fmt.Sprint(err); want == "" && err != nil || want != "" && got != want {
			t.Errorf("UnmarshalStrict(%q) = %v, want %q", data, err, want)
		}
	}
}

// checkPPRRequestEncode asserts AppendJSON agrees with json.Marshal on r
// (on a hook-free copy of each type), as a PPRRequest and as the
// PPRBatchRequest with the same members: the same bytes after what dst
// held, or the same *json.UnsupportedValueError. It returns the body, or
// nil.
func checkPPRRequestEncode(t testing.TB, r *PPRRequest) []byte {
	t.Helper()
	want, wantErr := json.Marshal((*plainPPRRequest)(r))
	got, err := r.AppendJSON([]byte("prefix"))
	sameEncode(t, "PPRRequest.AppendJSON", got, err, want, wantErr)
	wantB, wantBErr := json.Marshal((*plainPPRBatchRequest)(r))
	gotB, errB := (*PPRBatchRequest)(r).AppendJSON([]byte("prefix"))
	sameEncode(t, "PPRBatchRequest.AppendJSON", gotB, errB, wantB, wantBErr)
	if wantErr != nil {
		return nil
	}
	return want
}

// checkPPRRequestDecode asserts DecodeJSON agrees with UnmarshalStrict,
// the decode graphd applies to every request body, on data, for both
// request types: the same error text, or equal requests. Into a used
// value it must decode what it decodes into a zero one.
func checkPPRRequestDecode(t testing.TB, data []byte) {
	t.Helper()
	var got, want PPRRequest
	err, wantErr := got.DecodeJSON(data), UnmarshalStrict(data, &want)
	sameDecode(t, "UnmarshalStrict", data, err, wantErr, got, want)
	used := PPRRequest{Seeds: []int{7, 8}, Alpha: 0.5, Eps: 0.5, TopK: 3, Sweep: true}
	err = used.DecodeJSON(data)
	sameDecode(t, "UnmarshalStrict into a zero value", data, err, wantErr, used, want)
	var gotB, wantB PPRBatchRequest
	err, wantErr = gotB.DecodeJSON(data), UnmarshalStrict(data, &wantB)
	sameDecode(t, "UnmarshalStrict", data, err, wantErr, gotB, wantB)
}

// TestPPRRequestCodec walks what a ppr request can hold, as the SDK
// sends it (null, empty and extreme seeds; a negative zero, an e-form
// and extreme alpha and eps; topk negative, absent and set; sweep), and
// NaN and infinite floats, refused as json.Marshal refuses them: every
// body decodes back, with trailing white space too. Then it feeds the
// decoder what the SDK does not send, which must decode, or fail, as
// UnmarshalStrict does: an explicit zero topk and a false sweep, other
// key order, odd casing, unknown and duplicate members, numbers the
// members cannot hold, bytes or a second value after the first, and
// broken JSON.
func TestPPRRequestCodec(t *testing.T) {
	for _, r := range []*PPRRequest{
		{},
		{Seeds: []int{}},
		{Seeds: []int{3}, Alpha: 0.15, Eps: 1e-4, TopK: 100},
		{Seeds: []int{math.MinInt64, math.MaxInt64, -1, 0}, Alpha: math.Copysign(0, -1), Eps: 1e-7, TopK: -5, Sweep: true},
		{Seeds: []int{1, 1}, Alpha: 1e21, Eps: 5e-324, TopK: math.MaxInt64},
		{Seeds: []int{1}, Alpha: math.NaN()},
		{Seeds: []int{1}, Eps: math.Inf(1)},
	} {
		if body := checkPPRRequestEncode(t, r); body != nil {
			checkPPRRequestDecode(t, body)
			checkPPRRequestDecode(t, append(body, " \r\n\t"...))
		}
	}
	for _, data := range []string{
		`{"seeds":null,"alpha":0,"eps":0}`,
		`{"seeds":[],"alpha":0.15,"eps":0.0001}`,
		`{"seeds":[-1,-9223372036854775808],"alpha":-0,"eps":-0}`,
		`{"seeds":[9223372036854775808],"alpha":0.15,"eps":0.0001}`,
		`{"seeds":[1],"alpha":0.15,"eps":1e-07}`,
		`{"seeds":[1],"alpha":0.15,"eps":1E-7}`,
		`{"seeds":[1],"alpha":0.15,"eps":1e400}`,
		`{"seeds":[1],"alpha":0.15,"eps":0.0001,"topk":0}`,
		`{"seeds":[1],"alpha":0.15,"eps":0.0001,"topk":-0}`,
		`{"seeds":[1],"alpha":0.15,"eps":0.0001,"sweep":false}`,
		`{"seeds":[1],"alpha":0.15,"eps":0.0001,"topk":5,"sweep":true}`,
		`{"seeds":[1],"alpha":0.15,"eps":0.0001,"sweep":true,"topk":5}`,
		`{"alpha":0.15,"seeds":[1],"eps":0.0001}`,
		`{"seeds":[1]}`,
		` {"seeds" : [ 1 ] }`,
		`{"Seeds":[1],"ALPHA":0.1}`,
		`{"seeds":[1],"alpha":0.15,"eps":0.0001,"x":1}`,
		`{"seeds":[1],"seeds":[2],"alpha":0.15,"eps":0.0001}`,
		`{"seeds":[1],"alpha":0.15,"eps":0.0001,"topk":5,"topk":6}`,
		`{"seeds":[1.5],"alpha":0.15,"eps":0.0001}`,
		`{"seeds":[1e2],"alpha":0.15,"eps":0.0001}`,
		`{"seeds":["1"],"alpha":0.15,"eps":0.0001}`,
		`{"seeds":[1],"alpha":"0.15","eps":0.0001}`,
		`{"seeds":[1],"alpha":0.15,"eps":0.0001,"topk":1.5}`,
		`{"seeds":[1],"alpha":0.15,"eps":0.0001,"sweep":1}`,
		`{"seeds":[1],"alpha":null,"eps":0.0001}`,
		`{"seeds":[1],"alpha":0.15,"eps":0.0001} junk`,
		`{"seeds":[1],"alpha":0.15,"eps":0.0001}{"seeds":[2]}`,
		`{"seeds":[1]} {"seeds":[2]}`,
		`{"seeds":[1]}]`,
		`{"seeds":[1,],"alpha":0.15,"eps":0.0001}`,
		`{"seeds":[1],"alpha":0.15,"eps":0.0001`,
		`{"seeds":{}}`, `{}`, `[]`, `null`, `null x`, ``, ` `, `{`,
	} {
		checkPPRRequestDecode(t, []byte(data))
	}
	for _, num := range []string{"01", "-01", "-", "+1", "1.", ".5", "1e", "0x10", "NaN"} {
		checkPPRRequestDecode(t, []byte(`{"seeds":[`+num+`],"alpha":0.15,"eps":0.0001}`))
		checkPPRRequestDecode(t, []byte(`{"seeds":[1],"alpha":`+num+`,"eps":0.0001}`))
	}
}

// requestFromBytes builds a ppr request out of fuzz input: eight bytes a
// number, so every int and every float bit pattern is reachable, the
// low bits of the first choosing nil seeds, the count, and whether topk
// and sweep are set.
func requestFromBytes(data []byte) *PPRRequest {
	next := numbers(&data)
	shape := next()
	r := &PPRRequest{Alpha: math.Float64frombits(next()), Eps: math.Float64frombits(next())}
	if shape&1 != 0 {
		r.Seeds = make([]int, shape>>1&7)
		for i := range r.Seeds {
			r.Seeds[i] = int(next())
		}
	}
	if shape&16 != 0 {
		r.TopK = int(next())
	}
	r.Sweep = shape&32 != 0
	return r
}

// FuzzPPRRequestCodec is the differential test of the ppr request codec.
// The input is used twice: as a request body, which DecodeJSON must
// treat exactly as UnmarshalStrict does, in value and error text, for
// both request types; and as the raw material of a request, which
// AppendJSON must encode to json.Marshal's bytes or refuse with its
// error, and DecodeJSON must read back.
func FuzzPPRRequestCodec(f *testing.F) {
	for _, r := range []*PPRRequest{{}, {Seeds: []int{}}, {Seeds: []int{4, 1}, Alpha: 0.15, Eps: 1e-7, TopK: 100, Sweep: true}} {
		body, _ := r.AppendJSON(nil)
		f.Add(body)
	}
	f.Add([]byte(`{"seeds":[01],"alpha":0.15,"eps":0.0001}`))
	f.Add([]byte(`{"seeds":[1],"alpha":0.15,"eps":0.0001,"topk":0,"sweep":false}`))
	f.Add([]byte(`{"seeds":[1],"alpha":0.15,"eps":0.0001}{"seeds":[2]}`))
	f.Add([]byte("\x33\x00\x00\x00\x00\x00\x00\x00" + strings.Repeat("\x9a\x99\x99\x99\x99\x99\xc9\x3f", 2) + strings.Repeat("\xff", 8)))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkPPRRequestDecode(t, data)
		if body := checkPPRRequestEncode(t, requestFromBytes(data)); body != nil {
			checkPPRRequestDecode(t, body)
		}
	})
}
