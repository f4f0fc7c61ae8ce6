package kernel

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
)

func TestWorkspacePlaneBasics(t *testing.T) {
	ws := NewWorkspace(8)
	if ws.N() != 8 {
		t.Fatalf("N = %d", ws.N())
	}
	ws.p.add(3, 0.5)
	ws.p.add(3, 0.25)
	ws.p.add(1, 1)
	if got := ws.p.get(3); got != 0.75 {
		t.Fatalf("P(3) = %v", got)
	}
	if got := ws.p.get(0); got != 0 {
		t.Fatalf("P(0) = %v, want 0", got)
	}
	if got := ws.PSupport(); got != 2 {
		t.Fatalf("PSupport = %d", got)
	}
	if got := ws.PSum(); got != 1.75 {
		t.Fatalf("PSum = %v", got)
	}
	var seen []int
	ws.ForEachP(func(u int, x float64) { seen = append(seen, u) })
	if len(seen) != 2 || seen[0] != 3 || seen[1] != 1 {
		t.Fatalf("ForEachP touch order = %v, want [3 1]", seen)
	}
	// Reset is O(touched) but must make every entry read as zero.
	ws.Reset()
	if ws.p.get(3) != 0 || ws.p.get(1) != 0 || ws.PSupport() != 0 {
		t.Fatal("Reset left live entries")
	}
	// Stale dense values must not resurrect through add after reset.
	ws.p.add(3, 1)
	if got := ws.p.get(3); got != 1 {
		t.Fatalf("post-reset P(3) = %v, want 1 (stale value leaked)", got)
	}
}

func TestWorkspaceKillThenRetouch(t *testing.T) {
	ws := NewWorkspace(4)
	if ws.s.c != nil {
		t.Fatal("a new workspace allocated the walk's scratch plane")
	}
	ws.s.init(ws.N()) // as the first walk step does
	ws.s.add(2, 0.5)
	ws.s.kill(2)
	ws.s.list = ws.s.list[:0] // caller-side compaction, as walkStep does
	if c := ws.s.c[2]; c.stamp != 0 || c.val != 0.5 {
		t.Fatalf("killed record = %+v, want stamp 0 and the stale value kept", c)
	}
	if got := ws.s.get(2); got != 0 {
		t.Fatalf("killed entry reads %v, want 0", got)
	}
	ws.s.add(2, 0.125)
	if got := ws.s.get(2); got != 0.125 {
		t.Fatalf("re-touched entry reads %v (stale value survived kill)", got)
	}
	if len(ws.s.list) != 1 || ws.s.list[0] != 2 {
		t.Fatalf("re-touched entry missing from list: %v", ws.s.list)
	}
}

// TestPushQueueStaysLinear: every node is requeued after each of its
// pushes when α is tiny, so a queue that only ever appended would hold
// one entry per push. The buffer must stay O(n) however long the run.
func TestPushQueueStaysLinear(t *testing.T) {
	g := gen.RingOfCliques(8, 8)
	ws := NewWorkspace(g.N())
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	st, err := PushACL{Alpha: 1e-9, Eps: 1e-4}.DiffuseContext(ctx, g, ws, []int{0})
	if err != context.DeadlineExceeded {
		t.Fatalf("DiffuseContext = %v, want the deadline", err)
	}
	if st.Pushes < 100*g.N() {
		t.Fatalf("only %d pushes before the deadline; the run is too short to test", st.Pushes)
	}
	if c := cap(ws.q.buf); c > 8*g.N() {
		t.Fatalf("queue buffer grew to %d entries after %d pushes on %d nodes", c, st.Pushes, g.N())
	}
}

func TestWorkspaceEpochWraparound(t *testing.T) {
	ws := NewWorkspace(4)
	ws.p.add(1, 42)
	// Force the uint32 epoch to wrap; the entry from before the wrap
	// must not read as live once the epochs collide again.
	ws.p.epoch = ^uint32(0) - 1
	ws.p.c[1].stamp = ws.p.epoch // keep the entry live at the pre-wrap epoch
	ws.p.reset()                 // -> max uint32
	ws.p.reset()                 // wraps: records cleared, epoch back to 1
	if ws.p.epoch != 1 {
		t.Fatalf("post-wrap epoch = %d, want 1", ws.p.epoch)
	}
	if got := ws.p.get(1); got != 0 {
		t.Fatalf("entry survived epoch wraparound: %v", got)
	}
	// Queue marks live in the records of whichever plane is R, and a
	// walk step swaps R with the scratch plane, so marks left behind (a
	// push stopped mid-queue) can sit in either. Each plane's wrap must
	// clear the marks in its own records.
	ws.s.init(ws.N())
	ws.q.push(2)            // marked in R's record
	ws.r, ws.s = ws.s, ws.r // as walkStep swaps
	ws.q.push(3)            // marked in the other plane's record
	for _, pl := range []*plane{&ws.r, &ws.s} {
		pl.epoch = ^uint32(0)
		for u := range pl.c {
			if pl.c[u].inQ != 0 {
				pl.c[u].inQ = pl.epoch // queued at the pre-wrap epoch
			}
		}
	}
	ws.Reset() // wraps both planes and empties the queue buffer
	for name, pl := range map[string]*plane{"residual": &ws.r, "scratch": &ws.s} {
		if pl.epoch != 1 {
			t.Fatalf("%s post-wrap epoch = %d, want 1", name, pl.epoch)
		}
		for u, c := range pl.c {
			if c.inQ != 0 || c.stamp != 0 {
				t.Fatalf("%s record %d = %+v after the wrap, want no stamp and no mark", name, u, c)
			}
		}
	}
	for range 2 {
		ws.q.push(3) // must not be treated as already queued
		ws.q.push(2)
		if u, ok := ws.q.pop(); !ok || u != 3 {
			t.Fatalf("pop after wrap = (%d,%v), want (3,true)", u, ok)
		}
		if u, ok := ws.q.pop(); !ok || u != 2 {
			t.Fatalf("pop after wrap = (%d,%v), want (2,true)", u, ok)
		}
		ws.r, ws.s = ws.s, ws.r // and again on the other plane's records
	}
}

func TestFIFODeduplicatesAndOrders(t *testing.T) {
	ws := NewWorkspace(8)
	for _, u := range []int{5, 2, 5, 7, 2} {
		ws.q.push(u)
	}
	var got []int
	for {
		u, ok := ws.q.pop()
		if !ok {
			break
		}
		got = append(got, u)
	}
	want := []int{5, 2, 7}
	if len(got) != len(want) {
		t.Fatalf("popped %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("popped %v, want %v", got, want)
		}
	}
	// A popped node can be re-queued.
	ws.q.push(5)
	if u, ok := ws.q.pop(); !ok || u != 5 {
		t.Fatalf("re-queue after pop failed: (%d,%v)", u, ok)
	}
}

func TestPushACLDeterministicAcrossReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g, err := gen.ForestFire(gen.ForestFireConfig{N: 800, FwdProb: 0.35, Ambs: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWorkspace(g.N())
	run := func() (map[int]float64, Stats) {
		st, err := (PushACL{Alpha: 0.1, Eps: 1e-4}).Diffuse(g, ws, []int{17})
		if err != nil {
			t.Fatal(err)
		}
		out := map[int]float64{}
		ws.ForEachP(func(u int, x float64) { out[u] = x })
		return out, st
	}
	p1, st1 := run()
	// Dirty the workspace between uses; Diffuse must reset it.
	ws.p.add(3, 99)
	ws.r.add(4, 99)
	ws.q.push(5)
	p2, st2 := run()
	if st1 != st2 {
		t.Fatalf("stats differ across reuse: %+v vs %+v", st1, st2)
	}
	if len(p1) != len(p2) {
		t.Fatalf("support differs across reuse: %d vs %d", len(p1), len(p2))
	}
	for u, x := range p1 {
		if p2[u] != x {
			t.Fatalf("p[%d] differs across reuse: %v vs %v", u, x, p2[u])
		}
	}
}

// TestDiffuserValidation: every bad parameter is rejected with the same
// pinned error text by a strategy's Diffuse and by a BatchDiffuser
// running it — one validate per strategy serves both entry points.
func TestDiffuserValidation(t *testing.T) {
	g := gen.Path(5)
	ws := NewWorkspace(g.N())
	pool := NewPool(g.N())
	ok := PushACL{Alpha: 0.5, Eps: 1e-3}
	cases := []struct {
		name  string
		d     Diffuser
		ws    *Workspace
		seeds []int
		want  string
	}{
		{"push alpha 0", PushACL{Alpha: 0, Eps: 1e-3}, ws, []int{0}, "kernel: push alpha=0 outside (0,1)"},
		{"push alpha 1", PushACL{Alpha: 1, Eps: 1e-3}, ws, []int{0}, "kernel: push alpha=1 outside (0,1)"},
		{"push eps 0", PushACL{Alpha: 0.5, Eps: 0}, ws, []int{0}, "kernel: push eps=0 must be positive"},
		{"nibble eps 0", NibbleWalk{Eps: 0, Steps: 3}, ws, []int{0}, "kernel: nibble eps=0 must be positive"},
		{"nibble steps 0", NibbleWalk{Eps: 1e-3, Steps: 0}, ws, []int{0}, "kernel: nibble steps=0 must be >= 1"},
		{"heat t 0", HeatKernel{T: 0, Eps: 1e-3}, ws, []int{0}, "kernel: heat kernel t=0 must be positive and finite"},
		{"heat t NaN", HeatKernel{T: math.NaN(), Eps: 1e-3}, ws, []int{0}, "kernel: heat kernel t=NaN must be positive and finite"},
		{"heat t Inf", HeatKernel{T: math.Inf(1), Eps: 1e-3}, ws, []int{0}, "kernel: heat kernel t=+Inf must be positive and finite"},
		{"heat eps 0", HeatKernel{T: 1, Eps: 0}, ws, []int{0}, "kernel: heat kernel eps=0 must be positive"},
		{"heat t past bound", HeatKernel{T: 710, Eps: 1e-9}, ws, []int{0}, "kernel: heat kernel t=710 exceeds 700"},
		{"seed range", ok, ws, []int{9}, "kernel: seed 9 out of range [0,5)"},
	}
	for _, c := range cases {
		_, err := c.d.DiffuseContext(context.Background(), g, c.ws, c.seeds)
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: DiffuseContext = %v, want %q", c.name, err, c.want)
		}
		_, err = BatchDiffuser{Method: c.d}.Run(context.Background(), g, pool, c.seeds, nil)
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: Run = %v, want %q", c.name, err, c.want)
		}
	}
	// The entry points word an empty seed list and a mis-sized workspace
	// (one Diffuse can be handed; Run sizes its own from the pool)
	// differently.
	if _, err := ok.Diffuse(g, ws, nil); err == nil || err.Error() != "kernel: diffusion needs a nonempty seed set" {
		t.Errorf("empty seeds: Diffuse = %v", err)
	}
	if _, err := ok.Diffuse(g, NewWorkspace(3), []int{0}); err == nil || err.Error() != "kernel: workspace sized for 3 nodes used on a 5-node graph" {
		t.Errorf("mis-sized workspace: Diffuse = %v", err)
	}
}

// TestHeatKernelTimeBound: at maxHeatT the truncated expansion still
// holds all its mass (past it e^{−t} is subnormal and the support empties;
// TestDiffuserValidation pins the refusal).
func TestHeatKernelTimeBound(t *testing.T) {
	g := gen.RingOfCliques(8, 8)
	ws := NewWorkspace(g.N())
	if _, err := (HeatKernel{T: maxHeatT, Eps: 1e-9}).DiffuseContext(context.Background(), g, ws, []int{0}); err != nil {
		t.Fatal(err)
	}
	if s := ws.PSum(); math.Abs(s-1) > 1e-9 {
		t.Fatalf("t=%d: mass %v, want 1", maxHeatT, s)
	}
}

func TestPoolReuseAndSizeGuard(t *testing.T) {
	p := NewPool(16)
	ws := p.Get()
	if ws.N() != 16 {
		t.Fatalf("pool workspace N = %d", ws.N())
	}
	ws.p.add(1, 1)
	p.Put(ws)
	ws2 := p.Get()
	if ws2.PSupport() != 0 {
		t.Fatal("pooled workspace not reset on Get")
	}
	// A workspace of another size class never comes out of this one.
	p.Put(NewWorkspace(8))
	for i := 0; i < 64; i++ {
		if got := p.Get().capacity(); got != 16 {
			t.Fatalf("pool handed out a workspace of capacity %d", got)
		}
	}
}

// TestSizeClasses: the classes tile the node counts in order, one
// capacity each, every capacity is its own class's, powers of two are
// capacities, a capacity exceeds the node count by less than an eighth
// of it, and the largest int still indexes the fixed array.
func TestSizeClasses(t *testing.T) {
	prevC, prevCap := -1, 0
	for n := 1; n <= 1<<14; n++ {
		c, capacity := sizeClass(n)
		if c == prevC && capacity != prevCap || c != prevC && (c != prevC+1 || n != prevCap+1) {
			t.Fatalf("n=%d: class %d capacity %d after class %d capacity %d", n, c, capacity, prevC, prevCap)
		}
		if capacity < n || (capacity-n)<<classBits >= n && capacity != n {
			t.Fatalf("n=%d: capacity %d", n, capacity)
		}
		if n&(n-1) == 0 && capacity != n {
			t.Fatalf("power of two %d in a class of capacity %d", n, capacity)
		}
		prevC, prevCap = c, capacity
	}
	if c, capacity := sizeClass(1<<16 + 1); capacity != 73728 || c >= len(classes) {
		t.Fatalf("2^16+1 nodes: class %d capacity %d", c, capacity)
	}
	if c, _ := sizeClass(math.MaxInt); c != len(classes)-1 {
		t.Fatalf("the largest int is in class %d of %d", c, len(classes))
	}
}

// TestPoolConcurrentPush hammers one pool from many goroutines; with
// -race this locks the claim that pooled workspace reuse is safe as
// long as each workspace has a single holder at a time.
func TestPoolConcurrentPush(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, err := gen.ForestFire(gen.ForestFireConfig{N: 500, FwdProb: 0.3, Ambs: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	want, err := (PushACL{Alpha: 0.1, Eps: 1e-3}).Diffuse(g, NewWorkspace(g.N()), []int{1})
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(g.N())
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				ws := pool.Get()
				st, err := (PushACL{Alpha: 0.1, Eps: 1e-3}).Diffuse(g, ws, []int{1})
				if err != nil {
					t.Errorf("concurrent push: %v", err)
				} else if st != want {
					t.Errorf("stats drifted under concurrency: %+v vs %+v", st, want)
				}
				pool.Put(ws)
			}
		}()
	}
	wg.Wait()
}

// TestWalkStepMatchesDenseStep cross-checks one truncated lazy-walk
// step against a dense computation of W = (I + AD^{-1})/2.
func TestWalkStepMatchesDenseStep(t *testing.T) {
	g := gen.RingOfCliques(3, 4)
	ws := NewWorkspace(g.N())
	if err := seedR(g, ws, []int{0, 5}); err != nil {
		t.Fatal(err)
	}
	dense := make([]float64, g.N())
	dense[0], dense[5] = 0.5, 0.5
	next := make([]float64, g.N())
	for u, x := range dense {
		if x == 0 {
			continue
		}
		du := g.Degree(u)
		next[u] += x / 2
		it := g.Neighbors(u)
		for v, w, ok := it.Next(); ok; v, w, ok = it.Next() {
			next[v] += x / 2 * w / du
		}
	}
	dispatch(g, &op{kind: opWalkStep, ws: ws, eps: 1e-12})
	for u := 0; u < g.N(); u++ {
		got := ws.r.get(u)
		want := next[u]
		if want < 1e-12*g.Degree(u) {
			want = 0
		}
		if got != want {
			t.Fatalf("node %d: walk step %v, dense %v", u, got, want)
		}
	}
}
