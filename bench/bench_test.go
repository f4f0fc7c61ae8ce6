package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		q         float64
		want      float64
		supported bool
	}{
		{0.5, 50, true},
		{0.9, 90, true},   // exactly ten samples beyond
		{0.95, 95, false}, // five beyond
		{0.99, 99, false},
		{1, 100, false},
	} {
		got, ok := percentile(xs, tc.q)
		if got != tc.want || ok != tc.supported {
			t.Errorf("percentile(1..100, %v) = %v, %v; want %v, %v", tc.q, got, ok, tc.want, tc.supported)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples is supported")
	}
	// 100 samples support p90 but not p95 or p99; 19 support only the median.
	if q, v := supportedPercentile(xs, 0.99); q != 0.9 || v != 90 {
		t.Errorf("supportedPercentile(1..100, 0.99) = p%v %v, want p0.9 90", q, v)
	}
	if q, v := supportedPercentile(xs[:19], 0.95); q != 0.5 || v != 10 {
		t.Errorf("supportedPercentile(1..19, 0.95) = p%v %v, want p0.5 10", q, v)
	}
	if q, _ := supportedPercentile(append(xs, xs...), 0.95); q != 0.95 {
		t.Errorf("200 samples should support p95, got p%v", q)
	}
}

// The expected values are statistics.quantiles(xs, n=4) from Python 3.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{10, 20, 40, 80}, [3]float64{12.5, 30, 70}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Op: 1, ID: 1, Parent: 0, Name: spanRequest, Start: 0, End: 100},
		{Op: 1, ID: 2, Parent: 1, Name: spanRoundtrip, Start: 10, End: 60},
		{Op: 1, ID: 3, Parent: 2, Name: spanHandler, Start: 20, End: 50},
		{Op: 1, ID: 4, Parent: 1, Name: spanDecode, Start: 60, End: 70},
		// Overlaps span 4 for 5 ns and runs 10 ns past the root: only
		// 70..100 is newly covered.
		{Op: 1, ID: 5, Parent: 1, Name: spanKernel, Start: 65, End: 110},
	}
	want := map[int]int64{1: 100 - (50 + 10 + 30), 2: 50 - 30, 3: 30, 4: 10, 5: 45}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	if err := checkTrace(spans[:4]); err != nil {
		t.Errorf("checkTrace on a well-formed op: %v", err)
	}
	orphan := append(spans[:4:4], span{Op: 1, ID: 6, Parent: 9, Name: spanEncode, Start: 70, End: 80})
	if checkTrace(orphan) == nil {
		t.Error("checkTrace accepts a span whose parent does not exist")
	}
	twoRoots := append(spans[:4:4], span{Op: 1, ID: 6, Parent: 0, Name: spanRequest, Start: 70, End: 80})
	if checkTrace(twoRoots) == nil {
		t.Error("checkTrace accepts an op with two root spans")
	}
}

const testLevels = 10

// prepared boots an in-memory daemon and prepares the named workload on
// it at test size.
func prepared(t *testing.T, name string, seed int64) workload {
	t.Helper()
	w, err := newWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg, durable := w.daemon()
	e, err := boot(cfg, durable, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.close() })
	if err := w.prepare(context.Background(), e, seed, testLevels); err != nil {
		t.Fatal(err)
	}
	return w
}

// requestBytes is the first ops of both clients as the SDK would encode
// them.
func requestBytes(t *testing.T, w workload) []byte {
	t.Helper()
	var reqs []any
	for k := 0; k < numClients; k++ {
		for j := 0; j < 400; j++ {
			switch w := w.(type) {
			case *pprWorkload:
				reqs = append(reqs, w.request(k, j))
			case *batchWorkload:
				reqs = append(reqs, w.request(k, j))
			case *cycleWorkload:
				reqs = append(reqs, w.cycles[k][j%cyclePool])
			}
		}
	}
	body, err := json.Marshal(reqs)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func TestRequestStreamFollowsSeed(t *testing.T) {
	for _, name := range workloadNames {
		a := requestBytes(t, prepared(t, name, 7))
		b := requestBytes(t, prepared(t, name, 7))
		c := requestBytes(t, prepared(t, name, 8))
		if string(a) != string(b) {
			t.Errorf("%s: the same seed gave two request streams", name)
		}
		if string(a) == string(c) {
			t.Errorf("%s: seeds 7 and 8 gave the same request stream", name)
		}
	}
}

func TestHotSetStaysSmall(t *testing.T) {
	w := prepared(t, "hot_hit", 3).(*pprWorkload)
	keys := map[int]bool{}
	for k := range w.streams {
		for _, s := range w.streams[k] {
			keys[s] = true
		}
	}
	if len(keys) > hotKeys || len(keys) < hotKeys/2 {
		t.Errorf("hot stream touches %d distinct keys, want most of %d and no more", len(keys), hotKeys)
	}
	// Warm-up covers the head of each stream, which must enumerate the
	// whole hot set between the clients.
	head := map[int]bool{}
	for k := range w.streams {
		for _, s := range w.streams[k][:w.sz.warmup/numClients] {
			head[s] = true
		}
	}
	if len(head) != len(keys) {
		t.Errorf("warm-up touches %d of %d hot keys", len(head), len(keys))
	}
}

// TestSmokeAllWorkloads runs every workload in both modes at a small
// size and holds the printed metrics equal to BENCHMARK.json.
func TestSmokeAllWorkloads(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	names := func(ms []metricSpec) (out []string) {
		for _, m := range ms {
			out = append(out, m.Name)
		}
		return out
	}
	if got := names(spec.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end = %v, the bench prints %v", got, endToEnd)
	}
	if got := names(spec.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("BENCHMARK.json per_layer = %v, the bench prints %v", got, perLayer)
	}
	var listed []string
	for _, w := range spec.Workloads {
		listed = append(listed, w.Name)
	}
	if !reflect.DeepEqual(listed, workloadNames) {
		t.Errorf("BENCHMARK.json workloads = %v, the bench has %v", listed, workloadNames)
	}

	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			res, err := run(context.Background(), runConfig{
				workload: name, seed: 5, seconds: 0.2, trace: trace,
				levels: testLevels, setups: 1, shrink: 16,
				outDir: t.TempDir(), log: io.Discard,
			})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json lists %d", name, trace, len(res.Metrics), len(want))
			}
			for _, ms := range want {
				mv, ok := res.Metrics[ms.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not printed", name, trace, ms.Name)
				case mv.Unit != ms.Unit:
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", name, ms.Name, mv.Unit, ms.Unit)
				case math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", name, trace, ms.Name, mv.Value)
				case !trace && mv.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", name, ms.Name, mv.Value)
				}
			}
		}
	}
}

func TestWindowedIgnoresASpoiltWindow(t *testing.T) {
	const d = 5 * 1e9 // five 1 s windows
	var l loopStats
	for i := 0; i < 5000; i++ {
		end := float64(i) * 1e6 // one reply per ms
		lat := 1e6
		if end >= 2e9 && end < 3e9 {
			lat = 50e6 // the third window stalls
		}
		l.samples = append(l.samples, sample{end: end, lat: lat})
	}
	qps, p50, p95, q := l.windowed(d, io.Discard)
	if math.Abs(qps-1000) > 1e-6 || p50 != 1e6 || p95 != 1e6 || q != 0.95 {
		t.Errorf("windowed = %v ops/s, p50 %v, p%v %v; want 1000, 1e6, p0.95 1e6", qps, p50, q, p95)
	}
	// Too few replies for five windows: one window over the whole loop.
	l.samples = []sample{{end: 1e9, lat: 3e6}, {end: 4e9, lat: 5e6}}
	if qps, p50, _, _ := l.windowed(d, io.Discard); qps != 1.0/3 || p50 != 3e6 {
		t.Errorf("windowed on two replies = %v ops/s, p50 %v; want one reply per 3 s, 3e6", qps, p50)
	}
}
