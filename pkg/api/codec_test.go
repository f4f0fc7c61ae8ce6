package api

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// The encoder's reference is encoding/json on types that have the
// wire types' fields and tags but none of their methods, so no later
// hook on the real types can make the codec its own oracle. The
// decoder's reference has to be the real types, whose names the
// library's errors carry; TestCodecIsNotHooked keeps them hook-free.
type (
	plainResponse        PPRResponse
	plainBatchResponse   PPRBatchResponse
	plainEdgeBatch       EdgeBatchRequest
	plainPPRRequest      PPRRequest
	plainPPRBatchRequest PPRBatchRequest
)

func TestCodecIsNotHooked(t *testing.T) {
	for _, v := range []any{&PPRResponse{}, &PPRBatchResponse{}, &PPRBatchResult{}, &NodeMass{}, &SweepInfo{}, &WorkStats{}, &EdgeBatchRequest{}, &StreamEdge{}, &PPRRequest{}, &PPRBatchRequest{}} {
		if _, ok := v.(json.Unmarshaler); ok {
			t.Errorf("%T implements json.Unmarshaler: json.Unmarshal no longer is the reference", v)
		}
		if _, ok := v.(json.Marshaler); ok {
			t.Errorf("%T implements json.Marshaler: the replies' bytes are no longer the library's", v)
		}
	}
}

// checkEncode asserts AppendJSON agrees with json.Marshal on r: the same
// bytes (appended after what dst held), or the same error. A batch reply
// made of r's members must splice to json.Marshal's bytes and decode as
// json.Unmarshal does.
func checkEncode(t testing.TB, r *PPRResponse) []byte {
	t.Helper()
	res := PPRBatchResult{Seed: 3, Support: r.Support, Sum: r.Sum, Pushes: r.Pushes, WorkVolume: r.WorkVolume, Top: r.Top, Sweep: r.Sweep}
	batch := &PPRBatchResponse{Results: []PPRBatchResult{res, {Top: []NodeMass{}}, res}, TotalWork: r.WorkVolume, Work: r.Work}
	want, wantErr := json.Marshal((*plainResponse)(r))
	got, err := r.AppendJSON([]byte("prefix"))
	sameEncode(t, "AppendJSON", got, err, want, wantErr)
	checkSplice(t, batch)
	if wantErr != nil {
		return nil
	}
	// The batch holds only r's members, so r encoding means it does.
	wantB, err := json.Marshal((*plainBatchResponse)(batch))
	if err != nil {
		t.Fatal(err)
	}
	checkDecode(t, wantB)
	return want
}

// sameEncode asserts an encoder agrees with json.Marshal: the same bytes
// after what dst held, or the same *json.UnsupportedValueError.
func sameEncode(t testing.TB, what string, got []byte, err error, want []byte, wantErr error) {
	t.Helper()
	if wantErr != nil {
		var uve *json.UnsupportedValueError
		if err == nil || err.Error() != wantErr.Error() || !errors.As(err, &uve) {
			t.Fatalf("%s error %v, json.Marshal says %v", what, err, wantErr)
		}
		return
	}
	if err != nil || !bytes.Equal(got, append([]byte("prefix"), want...)) {
		t.Fatalf("%s (err %v):\n%s\njson.Marshal:\n%s", what, err, got, want)
	}
}

// checkSplice asserts that splicing b's results from the single-seed
// replies they mirror, as graphd assembles a ppr:batch reply, gives
// json.Marshal's bytes for b — or, when a result cannot be encoded as a
// reply or a batch member is NaN, json.Marshal's error.
func checkSplice(t testing.TB, b *PPRBatchResponse) {
	t.Helper()
	want, wantErr := json.Marshal((*plainBatchResponse)(b))
	seeds, bodies := make([]int, len(b.Results)), make([][]byte, len(b.Results))
	var err error
	for i, res := range b.Results {
		single := PPRResponse{Support: res.Support, Sum: res.Sum, Pushes: res.Pushes, WorkVolume: res.WorkVolume, Top: res.Top, Sweep: res.Sweep}
		seeds[i] = res.Seed
		if bodies[i], err = single.AppendJSON(nil); err != nil {
			sameEncode(t, "encoding a result", nil, err, want, wantErr)
			return
		}
	}
	got, err := AppendPPRBatchJSON([]byte("prefix"), seeds, func(i int) []byte { return bodies[i] }, b.TotalWork, b.Work)
	sameEncode(t, "AppendPPRBatchJSON", got, err, want, wantErr)
}

// checkSpliceCluster is checkSplice for a localcluster:batch reply,
// whose single-seed bodies graphd encodes with json.Marshal.
func checkSpliceCluster(t testing.TB, b *LocalClusterBatchResponse) {
	t.Helper()
	want, wantErr := json.Marshal(b)
	seeds, bodies := make([]int, len(b.Results)), make([][]byte, len(b.Results))
	var err error
	for i, res := range b.Results {
		single := LocalClusterResponse{Method: b.Method, Set: res.Set, Size: res.Size, Conductance: res.Conductance, Volume: res.Volume, Support: res.Support}
		seeds[i] = res.Seed
		if bodies[i], err = json.Marshal(single); err != nil {
			sameEncode(t, "encoding a result", nil, err, want, wantErr)
			return
		}
	}
	got, err := AppendLocalClusterBatchJSON([]byte("prefix"), b.Method, seeds, func(i int) []byte { return bodies[i] }, b.Work)
	sameEncode(t, "AppendLocalClusterBatchJSON", got, err, want, wantErr)
}

// TestSpliceBatch walks what a spliced batch reply can hold: duplicate
// seeds, results with and without a sweep, null and empty top lists and
// sets, the ?debug=work aggregate with and without its optional
// counters, no results at all, and NaN members, which are refused as
// json.Marshal refuses them. localcluster replies are checked for each
// method, and for a method name that needs escaping.
func TestSpliceBatch(t *testing.T) {
	r := sampleReply(3, true, false)
	res := PPRBatchResult{Seed: 7, Support: r.Support, Sum: r.Sum, Pushes: r.Pushes, WorkVolume: r.WorkVolume, Top: r.Top, Sweep: r.Sweep}
	bare := PPRBatchResult{Seed: 2, Support: 1, Sum: 0.5, Pushes: 1, WorkVolume: 3}
	empty := bare
	empty.Top, empty.Sweep = []NodeMass{}, &SweepInfo{Set: []int{}}
	nan := res
	nan.Top = []NodeMass{{Node: 1, Mass: math.NaN()}}
	agg := &WorkStats{Method: "push-batch", Pushes: 9, WorkVolume: 1e-7, MaxSupport: 4}
	for _, b := range []*PPRBatchResponse{
		{Results: []PPRBatchResult{}},
		{Results: []PPRBatchResult{res}, TotalWork: res.WorkVolume},
		{Results: []PPRBatchResult{res, bare, res, empty, res}, TotalWork: 1234.5 * 3},
		{Results: []PPRBatchResult{bare, {Seed: math.MinInt64, Top: []NodeMass{{Node: -1, Mass: -0.0}}}}, TotalWork: math.Copysign(0, -1), Work: agg},
		{Results: []PPRBatchResult{empty}, Work: &WorkStats{Method: "push-batch"}},
		{Results: []PPRBatchResult{res, nan}},
		{Results: []PPRBatchResult{res}, TotalWork: math.NaN()},
		{Results: []PPRBatchResult{res}, Work: &WorkStats{Method: "push-batch", WorkVolume: math.Inf(1)}},
	} {
		checkSplice(t, b)
	}
	cluster := []LocalClusterBatchResult{
		{Seed: 3, Set: []int{3, 1, 2}, Size: 3, Conductance: 0.25, Volume: 21, Support: 9},
		{Seed: 3, Set: []int{3, 1, 2}, Size: 3, Conductance: 0.25, Volume: 21, Support: 9},
		{Seed: 40, Set: []int{}, Conductance: 1e-9, Volume: 1e21},
		{Seed: 0},
	}
	for _, method := range append(slices.Clone(LocalClusterMethods), `a"b<c>&é`) {
		checkSpliceCluster(t, &LocalClusterBatchResponse{Method: method, Results: cluster})
		checkSpliceCluster(t, &LocalClusterBatchResponse{Method: method, Results: cluster[:1], Work: &WorkStats{Method: method + "-batch", Steps: 20, Terms: 3, MaxSupport: 9}})
		checkSpliceCluster(t, &LocalClusterBatchResponse{Method: method, Results: []LocalClusterBatchResult{}})
	}
	checkSpliceCluster(t, &LocalClusterBatchResponse{Method: "heat", Results: []LocalClusterBatchResult{{Seed: 1, Conductance: math.NaN()}}})
}

// checkDecode asserts DecodeJSON agrees with json.Unmarshal on data, for
// both reply types: the same error text, or structs that are DeepEqual
// and marshal to the same bytes (which tells -0 from 0, as DeepEqual
// does not).
func checkDecode(t testing.TB, data []byte) {
	t.Helper()
	var got, want PPRResponse
	err, wantErr := got.DecodeJSON(data), json.Unmarshal(data, &want)
	sameDecode(t, "json.Unmarshal", data, err, wantErr, got, want)
	var gotB, wantB PPRBatchResponse
	err, wantErr = gotB.DecodeJSON(data), json.Unmarshal(data, &wantB)
	sameDecode(t, "json.Unmarshal", data, err, wantErr, gotB, wantB)
}

// sameDecode asserts DecodeJSON agrees with its reference decode, named
// ref, on data: the same error text, or values that are DeepEqual and
// marshal to the same bytes.
func sameDecode(t testing.TB, ref string, data []byte, err, wantErr error, got, want any) {
	t.Helper()
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("DecodeJSON(%q) error %v, %s says %v", data, err, ref, wantErr)
	}
	a, _ := json.Marshal(got)
	b, _ := json.Marshal(want)
	if !reflect.DeepEqual(got, want) || !bytes.Equal(a, b) {
		t.Fatalf("DecodeJSON(%q):\n%s\n%s:\n%s", data, a, ref, b)
	}
}

// sampleReply is a reply of graphd's shape with n top entries.
func sampleReply(n int, sweep, work bool) *PPRResponse {
	r := &PPRResponse{Support: 3 * n, Sum: 0.987654321, Pushes: 7 * n, WorkVolume: 1234.5, Top: []NodeMass{}}
	for i := 0; i < n; i++ {
		r.Top = append(r.Top, NodeMass{Node: 1000 + 17*i, Mass: 0.1 / float64(i+1)})
	}
	if sweep {
		r.Sweep = &SweepInfo{Set: []int{5, 1, 0, 42}, Size: 4, Conductance: 0.0625, Prefix: 4}
	}
	if work {
		r.Work = &WorkStats{Method: "push", Pushes: 7 * n, WorkVolume: 1234.5, MaxSupport: 3 * n}
	}
	return r
}

// TestCodecFloats is the golden float table: the cut-overs between 'f'
// and 'e' form, the extremes, and a thousand random bit patterns, each
// as every float member of a reply and each read back to the same bits.
func TestCodecFloats(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 1e-7, 1e-6, 1e20, 1e21, 5e-324, math.MaxFloat64, 0.1 + 0.2,
		-1e-7, 9.999999999999999e-7, 1e-5, 123456789, 1e22, 1.5e-9, 1e-10, 1e100, -math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1)}
	rng := rand.New(rand.NewSource(21))
	for len(floats) < 1021 {
		floats = append(floats, math.Float64frombits(rng.Uint64()))
	}
	for _, f := range floats {
		r := sampleReply(2, true, true)
		r.Sum, r.WorkVolume, r.Top[1].Mass, r.Sweep.Conductance, r.Work.WorkVolume = f, f, f, f, f
		body := checkEncode(t, r)
		if body == nil {
			if !math.IsNaN(f) && !math.IsInf(f, 0) {
				t.Fatalf("finite %v did not encode", f)
			}
			continue
		}
		var back PPRResponse
		if err := back.DecodeJSON(body); err != nil || math.Float64bits(back.Top[1].Mass) != math.Float64bits(f) {
			t.Fatalf("%v (%x) came back as %v (err %v) from %s", f, math.Float64bits(f), back.Top[1].Mass, err, body)
		}
	}
	// The first unsupported member, in field order, is the one reported.
	r := sampleReply(1, true, false)
	r.Top[0].Mass, r.Sweep.Conductance = math.Inf(-1), math.NaN()
	checkEncode(t, r)
}

// TestCodecShapes walks the optional parts of a reply: nil against empty
// top and set (null against []), sweep and work present and absent, the
// omitted zero counters of a work block, and a method name that needs
// escaping.
func TestCodecShapes(t *testing.T) {
	for _, r := range []*PPRResponse{
		{},
		{Top: []NodeMass{}},
		sampleReply(0, false, false),
		sampleReply(1, true, false),
		sampleReply(3, false, true),
		sampleReply(100, true, true),
		{Top: []NodeMass{{1, 1}}, Sweep: &SweepInfo{}},
		{Top: []NodeMass{{1, 1}}, Sweep: &SweepInfo{Set: []int{}}},
		{Top: []NodeMass{}, Work: &WorkStats{}},
		{Top: []NodeMass{}, Work: &WorkStats{Method: "nibble", Steps: 20, MaxSupport: 9}},
		{Top: []NodeMass{}, Work: &WorkStats{Method: "heat", Terms: 12, WorkVolume: math.Copysign(0, -1)}},
		{Top: []NodeMass{}, Work: &WorkStats{Method: "a\"b\\c<d>& é\xff\x01"}},
		{Support: math.MinInt64, Pushes: math.MaxInt64, Top: []NodeMass{{Node: -1, Mass: -1}}},
	} {
		if body := checkEncode(t, r); body == nil {
			t.Fatalf("%+v did not encode", r)
		} else {
			checkDecode(t, body)
			checkDecode(t, append(body, " \r\n\t"...))
		}
	}
	nilBatch, err := json.Marshal(plainBatchResponse{})
	if err != nil {
		t.Fatal(err)
	}
	checkDecode(t, nilBatch)
}

// TestCodecFallback feeds the decoder what graphd does not emit. What
// encoding/json tolerates must decode as it does (an unknown member,
// other key order, white space, escaped keys, nulls, odd casing,
// duplicates); what JSON forbids must fail with the library's words.
func TestCodecFallback(t *testing.T) {
	body := string(checkEncode(t, sampleReply(2, true, true)))
	for _, data := range []string{
		strings.Replace(body, `{"support"`, `{"extra":{"a":[1,2]},"support"`, 1),
		strings.Replace(body, `"pushes":14,`, ``, 1) + ` `,
		`{"top":[{"mass":0.5,"node":2}],"sum":1,"support":1}`,
		"{ \"support\": 1,\n\t\"top\": [ ] }",
		`{"support":4,"Support":5,"SUM":2}`,
		`{"support":1,"support":2,"top":null,"sweep":null,"work":null}`,
		`{"support":1,"sum":1e400,"pushes":1,"work_volume":1,"top":[]}`,
		`{"support":9223372036854775808,"sum":1,"pushes":1,"work_volume":1,"top":[]}`,
		`{"support":1.0,"sum":1,"pushes":1,"work_volume":1,"top":[]}`,
		`{"support":1e2,"sum":1,"pushes":1,"work_volume":1,"top":[]}`,
		`{"support":1,"sum":1,"pushes":1,"work_volume":1,"top":[]}{}`,
		`{"support":1,"sum":1,"pushes":1,"work_volume":1,"top":[]`,
		`{"support":1,"sum":1,"pushes":1,"work_volume":1,"top":[{"node":1,"mass":1},]}`,
		`{"support":1,"sum":1,"pushes":1,"work_volume":1,"top":[],"work":{"method":"a\nb"}}`,
		`{"support":1,"sum":1,"pushes":1,"work_volume":1,"top":[],"work":{"method":"push`,
		`{"results":[],"total_work":0}`,
		`{"results":[{"seed":1,"support":1,"sum":1,"pushes":1,"work_volume":1,"top":[]},],"total_work":0}`,
		`{"results":null,"total_work":1}`,
		``, `null`, `[]`, `{}`, `{`, ` {}`,
	} {
		checkDecode(t, []byte(data))
	}
	// Every number spelling JSON forbids (the prototype of this decoder
	// let leading zeros through), in an integer and in a float member.
	for _, num := range []string{"01", "-01", "00", "+1", ".5", "1.", "-.5", "1.e5", "1e", "1e+", "-", "0x10", "1_0", "Infinity", "NaN", "1f", ""} {
		checkDecode(t, []byte(`{"support":`+num+`,"sum":1,"pushes":1,"work_volume":1,"top":[]}`))
		checkDecode(t, []byte(`{"support":1,"sum":`+num+`,"pushes":1,"work_volume":1,"top":[]}`))
		checkDecode(t, []byte(`{"support":1,"sum":1,"pushes":1,"work_volume":1,"top":[{"node":1,"mass":`+num+`}]}`))
	}
}

// TestDecodeIntoUsedValue: members absent from the body keep what the
// value held, as with json.Unmarshal, on the direct path too.
func TestDecodeIntoUsedValue(t *testing.T) {
	body := checkEncode(t, sampleReply(1, false, false))
	got, want := *sampleReply(2, true, true), *sampleReply(2, true, true)
	sameDecode(t, "json.Unmarshal", body, got.DecodeJSON(body), json.Unmarshal(body, &want), got, want)
	if got.Sweep == nil || got.Work == nil || len(got.Top) != 1 {
		t.Fatalf("decoded into a used value: %+v", got)
	}
}

// TestDecodeAllocs locks the direct path in: a 100-entry reply decodes
// in the allocations its own slices and blocks need — reflection takes
// dozens — so a reply of graphd's shape cannot silently start falling
// back to encoding/json.
func TestDecodeAllocs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		reply *PPRResponse
		max   float64
	}{
		{"plain", sampleReply(100, false, false), 1},            // top
		{"sweep and work", sampleReply(100, true, true), 1 + 4}, // + sweep, set, work, method
	} {
		body := checkEncode(t, tc.reply)
		var r PPRResponse // outside the closure: the SDK's is on the heap before the decoder sees it
		if got := testing.AllocsPerRun(50, func() {
			r = PPRResponse{}
			if err := r.DecodeJSON(body); err != nil {
				t.Fatal(err)
			}
		}); got > tc.max {
			t.Errorf("%s: decoding a 100-entry reply allocates %v times, want at most %v", tc.name, got, tc.max)
		}
		batch := &PPRBatchResponse{Results: make([]PPRBatchResult, 8)}
		for i := range batch.Results {
			batch.Results[i] = PPRBatchResult{Seed: i, Top: tc.reply.Top, Sweep: tc.reply.Sweep}
		}
		bbody, err := json.Marshal(batch)
		if err != nil {
			t.Fatal(err)
		}
		var rb PPRBatchResponse
		if got := testing.AllocsPerRun(50, func() {
			rb = PPRBatchResponse{}
			if err := rb.DecodeJSON(bbody); err != nil {
				t.Fatal(err)
			}
		}); got > 1+8*tc.max {
			t.Errorf("%s: decoding an 8-result batch allocates %v times, want at most %v", tc.name, got, 1+8*tc.max)
		}
	}
}

// replyFromBytes builds a reply out of fuzz input: eight bytes a
// number, so every float bit pattern and every int is reachable, the
// low bits of a few of them choosing the optional parts.
func replyFromBytes(data []byte) *PPRResponse {
	next := numbers(&data)
	float := func() float64 { return math.Float64frombits(next()) }
	shape := next()
	r := &PPRResponse{Support: int(next()), Sum: float(), Pushes: int(next()), WorkVolume: float()}
	if shape&1 != 0 {
		r.Top = make([]NodeMass, shape>>8&3)
		for i := range r.Top {
			r.Top[i] = NodeMass{Node: int(next()), Mass: float()}
		}
	}
	if shape&2 != 0 {
		r.Sweep = &SweepInfo{Size: int(next()), Conductance: float(), Prefix: int(next())}
		if shape&4 != 0 {
			r.Sweep.Set = make([]int, shape>>10&3)
			for i := range r.Sweep.Set {
				r.Sweep.Set[i] = int(next())
			}
		}
	}
	if shape&8 != 0 {
		r.Work = &WorkStats{Pushes: int(next()), WorkVolume: float(), Steps: int(next() >> 60), Terms: int(next() >> 60), MaxSupport: int(next() >> 60)}
		r.Work.Method = string(data[:min(len(data), int(shape>>12&7))])
	}
	return r
}

// numbers reads fuzz input eight bytes a number, consuming *data; past
// its end the numbers are zero.
func numbers(data *[]byte) func() uint64 {
	return func() uint64 {
		var w [8]byte
		*data = (*data)[copy(w[:], *data):]
		return binary.LittleEndian.Uint64(w[:])
	}
}

// clusterFromReply builds a localcluster:batch reply out of a ppr
// reply's members: its numbers, its sweep set and its work block, whose
// method names the batch's.
func clusterFromReply(r *PPRResponse) *LocalClusterBatchResponse {
	res := LocalClusterBatchResult{Seed: r.Pushes, Size: r.Support, Conductance: r.Sum, Volume: r.WorkVolume, Support: r.Support}
	if r.Sweep != nil {
		res.Set = r.Sweep.Set
	}
	b := &LocalClusterBatchResponse{Method: "ppr", Results: []LocalClusterBatchResult{res, {Set: []int{}}, res}, Work: r.Work}
	if r.Work != nil {
		b.Method = r.Work.Method
	}
	return b
}

// FuzzPPRReplyCodec is the differential test of the codec against
// encoding/json. The input is used twice: as a reply body, which
// DecodeJSON must treat exactly as json.Unmarshal does — so anything the
// direct path accepts the library accepts, to equal structs — and as the
// raw material of a reply, which AppendJSON must encode to json.Marshal's
// bytes or refuse with its error, and DecodeJSON must read back. The
// batch replies spliced from such replies (checkEncode's, and a
// localcluster:batch made of the same members) must be json.Marshal's
// too.
func FuzzPPRReplyCodec(f *testing.F) {
	for _, r := range []*PPRResponse{sampleReply(0, false, false), sampleReply(2, true, false), sampleReply(3, true, true)} {
		body, _ := r.AppendJSON(nil)
		f.Add(body)
		batch, _ := json.Marshal(&PPRBatchResponse{Results: []PPRBatchResult{{Seed: 1, Top: r.Top, Sweep: r.Sweep}}, Work: r.Work})
		f.Add(batch)
	}
	f.Add([]byte(`{"support":01,"sum":1,"pushes":1,"work_volume":1,"top":[]}`))
	f.Add([]byte(`{"support":1,"sum":1.,"pushes":1,"work_volume":1e-07,"top":[{"node":1,"mass":-0}]}`))
	f.Add([]byte("\x0f\x05\x00\x00\x00\x00\x00\x00" + "\x01\x00\x00\x00\x00\x00\xf0\x7f" + `a"<é`))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data)
		r := replyFromBytes(data)
		if body := checkEncode(t, r); body != nil {
			checkDecode(t, body)
		}
		checkSpliceCluster(t, clusterFromReply(r))
	})
}
