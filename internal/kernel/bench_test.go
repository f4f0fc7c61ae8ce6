package kernel_test

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/gstore"
	"repro/internal/kernel"
)

// BenchmarkDeepPPR is the kernel half of a deep ppr reply, phase by
// phase: the push (α 0.15, ε 1e-6), the sweep order of its output
// plane, and the prefix scan over that order, on the G16 Kronecker
// graph served compact. Seeds are the non-isolated nodes in shuffled
// order, one new seed per iteration, so no seed finds its rows or
// records warm from the iteration before. It reports each phase's µs
// per op, the push's ns per push, and the push's exact work per op —
// pushes, work volume and support — so a change in ns/push reads
// against the number of pushes it is spread over.
func BenchmarkDeepPPR(b *testing.B) {
	hg, err := gen.Kronecker(gen.KroneckerConfig{Levels: 16}, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	g, err := gstore.NewCompact(hg)
	if err != nil {
		b.Fatal(err)
	}
	var seeds []int
	for u := 0; u < g.N(); u++ {
		if g.Degree(u) > 0 {
			seeds = append(seeds, u)
		}
	}
	rand.New(rand.NewSource(1)).Shuffle(len(seeds), func(i, j int) { seeds[i], seeds[j] = seeds[j], seeds[i] })
	method := kernel.PushACL{Alpha: 0.15, Eps: 1e-6}
	ws := kernel.NewWorkspace(g.N())
	var push, sort, scan time.Duration
	var work kernel.Stats
	run := func(seed int) {
		t0 := time.Now()
		st, err := method.Diffuse(g, ws, []int{seed})
		if err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		k := ws.SweepOrderP(g)
		t2 := time.Now()
		ws.SweepScan(g, k, func(int, float64, float64) bool { return true })
		t3 := time.Now()
		push, sort, scan = push+t1.Sub(t0), sort+t2.Sub(t1), scan+t3.Sub(t2)
		work.Pushes += st.Pushes
		work.WorkVolume += st.WorkVolume
		work.MaxSupport += st.MaxSupport
	}
	run(seeds[len(seeds)-1]) // grow the lists, the queue and the sweep scratch
	push, sort, scan, work = 0, 0, 0, kernel.Stats{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(seeds[i%(len(seeds)-1)])
	}
	b.StopTimer()
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / float64(b.N) }
	b.ReportMetric(us(push), "push_us/op")
	b.ReportMetric(us(sort), "sort_us/op")
	b.ReportMetric(us(scan), "scan_us/op")
	b.ReportMetric(float64(push.Nanoseconds())/float64(max(work.Pushes, 1)), "ns/push")
	b.ReportMetric(float64(work.Pushes)/float64(b.N), "pushes/op")
	b.ReportMetric(work.WorkVolume/float64(b.N), "work/op")
	b.ReportMetric(float64(work.MaxSupport)/float64(b.N), "support/op")
}
