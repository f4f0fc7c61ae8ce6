package api

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"strings"
)

// The ppr replies are most of what graphd puts on the wire and their
// shape is fixed, so PPRResponse is encoded, and it and PPRBatchResponse
// are decoded, here without reflection, in one pass over the bytes. The
// encoder's output is json.Marshal's, byte for byte. The decoder accepts
// exactly what the encoder writes (plus trailing white space) and gives
// anything else to encoding/json unchanged, so what is tolerated and how
// errors read stay the library's. Neither is hooked into the library as
// a Marshaler or Unmarshaler: it scans the value again around those.
// graphd answers a batch request as one single-seed query per seed, so
// it assembles the two batch replies by splicing those queries' bodies,
// with the same guarantee: the bytes are json.Marshal's.

// AppendJSON appends the bytes json.Marshal(r) returns to dst. A NaN or
// infinite member is the library's *json.UnsupportedValueError, and what
// was appended is then not a reply.
func (r *PPRResponse) AppendJSON(dst []byte) ([]byte, error) {
	e := encoder{b: dst}
	e.lit(`{`)
	e.pprFields(r.Support, r.Sum, r.Pushes, r.WorkVolume, r.Top, r.Sweep)
	e.work(r.Work)
	return e.finish()
}

// AppendPPRBatchJSON appends the bytes json.Marshal returns for the
// PPRBatchResponse whose i-th result is seeds[i] with the fields of the
// PPRResponse body(i) encodes, and whose total_work and work are the
// arguments. It splices instead of re-encoding: a PPRBatchResult is
// {"seed":S, followed by the single-seed reply after its {. Every body
// must be a reply as AppendJSON writes it, without a work block.
func AppendPPRBatchJSON(dst []byte, seeds []int, body func(i int) []byte, totalWork float64, work *WorkStats) ([]byte, error) {
	e := encoder{b: dst}
	e.lit(`{"results":[`)
	e.splice(seeds, body, len(`{`))
	e.float(`,"total_work":`, totalWork)
	e.work(work)
	return e.finish()
}

// AppendLocalClusterBatchJSON is AppendPPRBatchJSON for the
// LocalClusterBatchResponse of method, whose results splice the
// LocalClusterResponse bodies (as json.Marshal writes them, without a
// work block) less their leading "method" member.
func AppendLocalClusterBatchJSON(dst []byte, method string, seeds []int, body func(i int) []byte, work *WorkStats) ([]byte, error) {
	e := encoder{b: dst}
	e.str(`{"method":`, method)
	lead := len(e.b) - len(dst) + len(`,`) // what each body opens with
	e.lit(`,"results":[`)
	e.splice(seeds, body, lead)
	e.work(work)
	return e.finish()
}

// DecodeJSON decodes a reply body into r as json.Unmarshal(data, r)
// does: directly when data has the encoder's shape, else by that call.
func (r *PPRResponse) DecodeJSON(data []byte) error {
	d, v := decoder{b: data}, *r
	d.lit(`{`)
	d.pprFields(&v.Support, &v.Sum, &v.Pushes, &v.WorkVolume, &v.Top, &v.Sweep)
	d.work(&v.Work)
	if !d.finish() {
		return json.Unmarshal(data, r)
	}
	*r = v
	return nil
}

// DecodeJSON is PPRResponse.DecodeJSON for the batch reply.
func (r *PPRBatchResponse) DecodeJSON(data []byte) error {
	d, v := decoder{b: data}, *r
	d.lit(`{"results":[`)
	v.Results = room[PPRBatchResult](&d, `},{"seed":`, false)
	for more := !d.opt(`]`); more; more = d.next() {
		res := PPRBatchResult{Seed: d.int(`{"seed":`)}
		d.lit(`,`)
		d.pprFields(&res.Support, &res.Sum, &res.Pushes, &res.WorkVolume, &res.Top, &res.Sweep)
		d.lit(`}`)
		v.Results = append(v.Results, res)
	}
	v.TotalWork = d.float(`,"total_work":`)
	d.work(&v.Work)
	if !d.finish() {
		return json.Unmarshal(data, r)
	}
	*r = v
	return nil
}

// The requests graphd sees most, ppr and ppr:batch, and the one whose
// size grows with the data, the edge batch, have the same pair of
// methods under the request side's contract: DecodeJSON falls back to
// UnmarshalStrict, the decode graphd applies to every request body.

// UnmarshalStrict decodes one JSON value from data into v, refusing
// unknown members, so a typo'd knob fails instead of silently running a
// default; after the value only white space may follow, so a second
// value or stray bytes fail too, in json.Unmarshal's words.
func UnmarshalStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if len(bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n")) == 0 {
		return nil
	}
	// The value before them is valid, so the library's check of the whole
	// body fails at the first stray byte.
	return json.Unmarshal(data, new(struct{}))
}

// AppendJSON appends the bytes json.Marshal(r) returns to dst. A NaN or
// infinite alpha or eps is the library's *json.UnsupportedValueError,
// and what was appended is then not a request; a decoded request's are
// always finite.
func (r *PPRRequest) AppendJSON(dst []byte) ([]byte, error) {
	e := encoder{b: dst}
	e.ints(`{"seeds":`, r.Seeds)
	e.float(`,"alpha":`, r.Alpha)
	e.float(`,"eps":`, r.Eps)
	e.omitZero(`,"topk":`, r.TopK)
	if r.Sweep {
		e.lit(`,"sweep":true`)
	}
	return e.finish()
}

// AppendJSON is PPRRequest.AppendJSON for the batch request, whose
// members are the same.
func (r *PPRBatchRequest) AppendJSON(dst []byte) ([]byte, error) {
	return (*PPRRequest)(r).AppendJSON(dst)
}

// DecodeJSON decodes a request body into r as UnmarshalStrict(data)
// into a zero PPRRequest does: directly when data has AppendJSON's
// shape, else by that decode.
func (r *PPRRequest) DecodeJSON(data []byte) error { return decodePPRRequest(data, r, r) }

// DecodeJSON is PPRRequest.DecodeJSON for the batch request; a body it
// falls back on decodes as a PPRBatchRequest, whose name the library's
// errors carry.
func (r *PPRBatchRequest) DecodeJSON(data []byte) error {
	return decodePPRRequest(data, (*PPRRequest)(r), r)
}

// decodePPRRequest reads AppendJSON's shape into into, or gives data to
// the strict decode into v, which is into as its own type. AppendJSON
// never writes a zero topk, so an explicit one falls back too.
func decodePPRRequest(data []byte, into *PPRRequest, v any) error {
	d := decoder{b: data}
	req := PPRRequest{Seeds: d.ints(`{"seeds":`)}
	req.Alpha = d.float(`,"alpha":`)
	req.Eps = d.float(`,"eps":`)
	if d.opt(`,"topk":`) {
		req.TopK = d.int(``)
		d.bad = d.bad || req.TopK == 0
	}
	req.Sweep = d.opt(`,"sweep":true`)
	if d.finish() {
		*into = req
		return nil
	}
	*into = PPRRequest{}
	return UnmarshalStrict(data, v)
}

// AppendJSON appends the bytes json.Marshal(r) returns to dst: "w" only
// when the weight is not zero, as its omitempty tag says. A NaN or
// infinite weight is the library's *json.UnsupportedValueError, and what
// was appended is then not a request.
func (r *EdgeBatchRequest) AppendJSON(dst []byte) ([]byte, error) {
	e := encoder{b: dst}
	if r.Edges == nil {
		e.lit(`{"edges":null`)
		return e.finish()
	}
	e.lit(`{"edges":[`)
	for _, ed := range r.Edges {
		e.int(`{"u":`, ed.U)
		e.int(`,"v":`, ed.V)
		if ed.W != 0 {
			e.float(`,"w":`, ed.W)
		}
		e.lit(`},`)
	}
	e.closeArray()
	return e.finish()
}

// DecodeJSON decodes a request body into r as UnmarshalStrict(data) into
// an EdgeBatchRequest without edges does: directly when data has
// AppendJSON's shape, else by that decode. Either way the edges land in
// r.Edges' array when it has room, each written whole.
func (r *EdgeBatchRequest) DecodeJSON(data []byte) error {
	d := decoder{b: data}
	var edges []StreamEdge
	if !d.opt(`{"edges":null`) {
		d.lit(`{"edges":[`)
		if n := d.elems(`},{`, true); d.bad || cap(r.Edges) >= n {
			edges = r.Edges[:0]
		} else {
			edges = make([]StreamEdge, 0, n)
		}
		for more := !d.opt(`]`); more; more = d.next() {
			ed := StreamEdge{U: d.int(`{"u":`), V: d.int(`,"v":`)}
			if d.opt(`,"w":`) {
				ed.W = d.float(``)
			}
			d.lit(`}`)
			edges = append(edges, ed)
		}
	}
	if d.finish() {
		r.Edges = edges
		return nil
	}
	// The library decodes each element over what the array holds there,
	// keeping the members the body omits, so no slot may hold an old edge.
	clear(r.Edges[:cap(r.Edges)])
	r.Edges = r.Edges[:0]
	return UnmarshalStrict(data, r)
}

// isPlain reports whether every byte of s stands for itself inside a
// JSON string as encoding/json writes one: printable ASCII, no quote or
// backslash and none of the three bytes it escapes for HTML.
func isPlain(s string) bool {
	return strings.IndexFunc(s, func(r rune) bool { return r < ' ' || r >= 0x7f || strings.ContainsRune(`"\<>&`, r) }) < 0
}

// encoder appends JSON to b; err is the first member encoding/json would
// have refused. The number methods write a literal first, often a key.
type encoder struct {
	b   []byte
	err error
}

func (e *encoder) lit(s string) { e.b = append(e.b, s...) }

func (e *encoder) int(key string, v int) { e.b = strconv.AppendInt(append(e.b, key...), int64(v), 10) }

// float follows encoding/json's floatEncoder: the shortest digits that
// round-trip, in 'f' form unless the exponent is below -6 or at least
// 21, then in 'e' form with a one-digit negative exponent unpadded.
func (e *encoder) float(key string, f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if e.err == nil {
			_, e.err = json.Marshal(f)
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(append(e.b, key...), f, format, -1, 64)
	if n := len(e.b); format == 'e' && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1]
		e.b = e.b[:n-1]
	}
}

// closeArray ends an array whose elements each wrote a trailing comma.
func (e *encoder) closeArray() {
	if n := len(e.b) - 1; e.b[n] == ',' {
		e.b[n] = ']'
	} else {
		e.lit(`]`)
	}
}

func (e *encoder) finish() ([]byte, error) { return append(e.b, '}'), e.err }

// ints writes key and s as an array of numbers, or null.
func (e *encoder) ints(key string, s []int) {
	e.lit(key)
	if s == nil {
		e.lit(`null`)
		return
	}
	e.lit(`[`)
	for _, v := range s {
		e.int(``, v)
		e.lit(`,`)
	}
	e.closeArray()
}

// str writes key and s as a JSON string, escaped as encoding/json
// escapes it.
func (e *encoder) str(key, s string) {
	if isPlain(s) {
		e.b = append(append(append(append(e.b, key...), '"'), s...), '"')
		return
	}
	// A string always marshals, and the escaping stays the library's. The
	// copy keeps s from escaping, and with it whatever holds s: a reply's
	// work block can then live on its encoder's stack.
	q, _ := json.Marshal(strings.Clone(s))
	e.b = append(append(e.b, key...), q...)
}

// splice writes the elements of a batch's results array, each
// {"seed":S, and the rest of body(i) after its first skip bytes, having
// grown b once to hold them all.
func (e *encoder) splice(seeds []int, body func(i int) []byte, skip int) {
	n := len(`]`)
	for i := range seeds {
		n += len(`{"seed":-9223372036854775808,`) + len(body(i)) - skip + len(`,`)
	}
	e.b = slices.Grow(e.b, n)
	for i, seed := range seeds {
		e.int(`{"seed":`, seed)
		e.lit(`,`)
		e.b = append(append(e.b, body(i)[skip:]...), ',')
	}
	e.closeArray()
}

// pprFields writes the members PPRResponse and PPRBatchResult share,
// "support" through the optional "sweep".
func (e *encoder) pprFields(support int, sum float64, pushes int, workVolume float64, top []NodeMass, sweep *SweepInfo) {
	e.int(`"support":`, support)
	e.float(`,"sum":`, sum)
	e.int(`,"pushes":`, pushes)
	e.float(`,"work_volume":`, workVolume)
	if top == nil {
		e.lit(`,"top":null`)
	} else {
		e.lit(`,"top":[`)
		for _, nm := range top {
			e.int(`{"node":`, nm.Node)
			e.float(`,"mass":`, nm.Mass)
			e.lit(`},`)
		}
		e.closeArray()
	}
	if sweep == nil {
		return
	}
	e.ints(`,"sweep":{"set":`, sweep.Set)
	e.int(`,"size":`, sweep.Size)
	e.float(`,"conductance":`, sweep.Conductance)
	e.int(`,"prefix":`, sweep.Prefix)
	e.lit(`}`)
}

// work writes the optional trailing "work" member; the counters a
// method does not produce are omitted, as their omitempty tags say.
func (e *encoder) work(w *WorkStats) {
	if w == nil {
		return
	}
	e.str(`,"work":{"method":`, w.Method)
	e.omitZero(`,"pushes":`, w.Pushes)
	if w.WorkVolume != 0 {
		e.float(`,"work_volume":`, w.WorkVolume)
	}
	e.omitZero(`,"steps":`, w.Steps)
	e.omitZero(`,"terms":`, w.Terms)
	e.omitZero(`,"max_support":`, w.MaxSupport)
	e.lit(`}`)
}

func (e *encoder) omitZero(key string, v int) {
	if v != 0 {
		e.int(key, v)
	}
}

// decoder reads the encoder's output back from b. bad is set at the
// first byte the encoder would not have written there and stays set;
// every method is then a no-op, so callers read straight through and
// check once, in finish. The number methods mirror the encoder's.
type decoder struct {
	b   []byte
	i   int
	bad bool
}

// opt consumes s if it is next.
func (d *decoder) opt(s string) bool {
	if d.bad || len(d.b)-d.i < len(s) || string(d.b[d.i:d.i+len(s)]) != s {
		return false
	}
	d.i += len(s)
	return true
}

// lit consumes s, which must be next.
func (d *decoder) lit(s string) { d.bad = !d.opt(s) }

// next moves past an array element: on to the following one (true), or
// out of the array.
func (d *decoder) next() bool {
	if d.opt(`,`) {
		return true
	}
	d.lit(`]`)
	return false
}

// finish consumes the top-level object's closing brace and reports
// whether all of b was read cleanly; only white space may follow.
func (d *decoder) finish() bool {
	d.lit(`}`)
	return !d.bad && len(bytes.TrimLeft(d.b[d.i:], " \t\r\n")) == 0
}

// digits consumes a run of digits and returns its length.
func (d *decoder) digits() int {
	b, i := d.b, d.i
	for i < len(b) && b[i]-'0' <= 9 {
		i++
	}
	n := i - d.i
	d.i = i
	return n
}

// number consumes key and the JSON number after it and returns its
// text; what the grammar forbids, a leading zero or a bare point, is
// bad. An integer stops short of a fraction or exponent, where whatever
// literal is due next trips over it.
func (d *decoder) number(key string, integer bool) []byte {
	d.lit(key)
	start := d.i
	d.opt(`-`)
	lead := d.i
	ok := d.digits() > 0 && (d.b[lead] != '0' || d.i == lead+1)
	if !integer && d.opt(`.`) {
		ok = d.digits() > 0 && ok
	}
	if !integer && (d.opt(`e`) || d.opt(`E`)) {
		_ = d.opt(`+`) || d.opt(`-`)
		ok = d.digits() > 0 && ok
	}
	d.bad = d.bad || !ok
	return d.b[start:d.i]
}

// int and float convert with the functions encoding/json uses, so the
// values are the same to the bit; out of range is the library's to word.
func (d *decoder) int(key string) int {
	v, err := strconv.ParseInt(string(d.number(key, true)), 10, 0)
	d.bad = d.bad || err != nil
	return int(v)
}

func (d *decoder) float(key string) float64 {
	f, err := strconv.ParseFloat(string(d.number(key, false)), 64)
	d.bad = d.bad || err != nil
	return f
}

// elems counts the array elements ahead by the separator between two of
// them: up to the next closing bracket when they are flat, in all that
// is left when they nest; at least one. (What a hostile body sizes this
// way encoding/json would let it allocate.)
func (d *decoder) elems(sep string, flat bool) int {
	span := d.b[d.i:]
	if end := bytes.IndexByte(span, ']'); flat && end >= 0 {
		span = span[:end]
	}
	return bytes.Count(span, []byte(sep)) + 1
}

// ints reads what encoder.ints writes.
func (d *decoder) ints(key string) []int {
	d.lit(key)
	if d.opt(`null`) {
		return nil
	}
	d.lit(`[`)
	s := room[int](d, `,`, true)
	for more := !d.opt(`]`); more; more = d.next() {
		s = append(s, d.int(``))
	}
	return s
}

// room returns an empty slice with room for the array elements ahead.
func room[T any](d *decoder, sep string, flat bool) []T {
	if d.bad {
		return nil
	}
	return make([]T, 0, d.elems(sep, flat))
}

func (d *decoder) pprFields(support *int, sum *float64, pushes *int, workVolume *float64, top *[]NodeMass, sweep **SweepInfo) {
	*support = d.int(`"support":`)
	*sum = d.float(`,"sum":`)
	*pushes = d.int(`,"pushes":`)
	*workVolume = d.float(`,"work_volume":`)
	d.lit(`,"top":[`)
	*top = room[NodeMass](d, `},{`, true)
	for more := !d.opt(`]`); more; more = d.next() {
		*top = append(*top, NodeMass{Node: d.int(`{"node":`), Mass: d.float(`,"mass":`)})
		d.lit(`}`)
	}
	if !d.opt(`,"sweep":`) {
		return
	}
	s := &SweepInfo{Set: d.ints(`{"set":`)}
	s.Size = d.int(`,"size":`)
	s.Conductance = d.float(`,"conductance":`)
	s.Prefix = d.int(`,"prefix":`)
	d.lit(`}`)
	*sweep = s
}

func (d *decoder) work(into **WorkStats) {
	if !d.opt(`,"work":{"method":"`) {
		return
	}
	start := d.i
	d.i += max(bytes.IndexByte(d.b[d.i:], '"'), 0)
	w := &WorkStats{Method: string(d.b[start:d.i])}
	d.bad = !isPlain(w.Method)
	d.lit(`"`)
	d.optInt(`,"pushes":`, &w.Pushes)
	if d.opt(`,"work_volume":`) {
		w.WorkVolume = d.float(``)
	}
	d.optInt(`,"steps":`, &w.Steps)
	d.optInt(`,"terms":`, &w.Terms)
	d.optInt(`,"max_support":`, &w.MaxSupport)
	d.lit(`}`)
	*into = w
}

func (d *decoder) optInt(key string, into *int) {
	if d.opt(key) {
		*into = d.int(``)
	}
}
