package kernel_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/gstore"
	"repro/internal/kernel"
	"repro/internal/persist"
)

// The batch engine's whole value proposition rests on one promise:
// running K seeds through BatchDiffuser produces, per seed, the exact
// bytes a single-seed Diffuse produces, on every backend, at every
// batch size, duplicates included. These tests lock that promise with
// Float64bits fingerprints, no tolerances.

func batchTestGraph(t testing.TB) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	g, err := gen.ErdosRenyi(300, 0.03, rng)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// batchBackends serves g the three ways a *gstore.Compact comes to be:
// "heap" is the builder's graph converted by gstore.Wrap, as every
// in-process caller holding a *graph.Graph hands it to the kernel;
// "compact" is its snapshot decoded into one buffer, graphd's in-memory
// load; "mmap" is the same snapshot mapped, skipped on platforms that
// cannot map snapshots.
func batchBackends(t testing.TB, g *graph.Graph) map[string]gstore.Graph {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g"+persist.SnapshotExt)
	if err := persist.WriteSnapshotFile(path, gstore.Wrap(g)); err != nil {
		t.Fatalf("WriteSnapshotFile: %v", err)
	}
	c, err := persist.ReadCompactFile(path)
	if err != nil {
		t.Fatalf("ReadCompactFile: %v", err)
	}
	out := map[string]gstore.Graph{"heap": gstore.Wrap(g), "compact": c}
	m, err := persist.OpenMapped(path)
	if errors.Is(err, persist.ErrNotMappable) {
		t.Logf("platform cannot mmap snapshots: %v", err)
		return out
	}
	if err != nil {
		t.Fatalf("OpenMapped: %v", err)
	}
	t.Cleanup(func() { m.Close() })
	out["mmap"] = m
	return out
}

// wsFingerprint folds a workspace's output planes and stats into a
// printable byte-exact fingerprint.
func wsFingerprint(ws *kernel.Workspace, st kernel.Stats) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "pushes=%d work=%016x steps=%d terms=%d maxsupport=%d\n",
		st.Pushes, math.Float64bits(st.WorkVolume), st.Steps, st.Terms, st.MaxSupport)
	sb.WriteString("P")
	ws.ForEachP(func(u int, v float64) {
		fmt.Fprintf(&sb, " %d:%016x", u, math.Float64bits(v))
	})
	sb.WriteString("\nR")
	ws.ForEachR(func(u int, v float64) {
		fmt.Fprintf(&sb, " %d:%016x", u, math.Float64bits(v))
	})
	sb.WriteByte('\n')
	return sb.String()
}

// batchSeeds returns K seeds spread over the graph, with duplicates:
// index 3 repeats index 0 and every 11th seed repeats, so the suite
// always exercises identical seeds in one batch, adjacent and far apart.
func batchSeeds(n, k int) []int {
	seeds := make([]int, k)
	for i := range seeds {
		seeds[i] = (i * 37) % n
	}
	if k > 3 {
		seeds[3] = seeds[0]
	}
	for i := 11; i < k; i += 11 {
		seeds[i] = seeds[i-11]
	}
	return seeds
}

func batchMethods() map[string]kernel.Diffuser {
	return map[string]kernel.Diffuser{
		"push":   kernel.PushACL{Alpha: 0.13, Eps: 3e-5},
		"nibble": kernel.NibbleWalk{Eps: 1e-4, Steps: 18},
		"heat":   kernel.HeatKernel{T: 4.5, Eps: 1e-4},
	}
}

// TestBatchMatchesSequential: for each backend, method, and batch size
// K ∈ {1, 7, 9, 13, 64} — fewer and more seeds than workers — every
// seed's batch output is byte-identical to the same seed diffused
// alone, for both worker counts (the schedule, and whichever pooled
// workspace a seed lands on, must never leak into the floats).
// TestEngineMatchesOracle holds both to an independent reference.
func TestBatchMatchesSequential(t *testing.T) {
	hg := batchTestGraph(t)
	backends := batchBackends(t, hg)
	for backendName, g := range backends {
		for methodName, method := range batchMethods() {
			for _, k := range []int{1, 7, 9, 13, 64} {
				name := fmt.Sprintf("%s/%s/K%d", backendName, methodName, k)
				t.Run(name, func(t *testing.T) {
					seeds := batchSeeds(g.N(), k)
					pool := kernel.NewPool(g.N())

					// One Diffuse per seed.
					want := make([]string, len(seeds))
					for i, s := range seeds {
						ws := pool.Get()
						st, err := method.DiffuseContext(context.Background(), g, ws, []int{s})
						if err != nil {
							t.Fatalf("sequential Diffuse(seed %d): %v", s, err)
						}
						want[i] = wsFingerprint(ws, st)
						pool.Put(ws)
					}

					for _, workers := range []int{1, 4} {
						got := make([]string, len(seeds))
						bd := kernel.BatchDiffuser{Method: method, Workers: workers}
						sts, err := bd.Run(context.Background(), g, pool, seeds,
							func(i int, ws *kernel.Workspace, st kernel.Stats) error {
								got[i] = wsFingerprint(ws, st)
								return nil
							})
						if err != nil {
							t.Fatalf("batch Run(workers=%d): %v", workers, err)
						}
						if len(sts) != len(seeds) {
							t.Fatalf("batch returned %d stats for %d seeds", len(sts), len(seeds))
						}
						for i := range seeds {
							if got[i] != want[i] {
								t.Fatalf("seed[%d]=%d diverges (workers=%d):\nbatch: %.200s\nseq:   %.200s",
									i, seeds[i], workers, got[i], want[i])
							}
						}
					}
				})
			}
		}
	}
}

// TestPushStopsAtDeadline: a push diffusion's length is bounded only by
// 1/(ε·α), so the loop itself must notice a deadline. At α = 1e-9 a
// 64-node push runs for hours; under a 20 ms deadline it must return
// context.DeadlineExceeded within moments, on every backend, and the
// pooled workspace must serve the next run exactly.
func TestPushStopsAtDeadline(t *testing.T) {
	hg := gen.RingOfCliques(8, 8)
	for kind, g := range batchBackends(t, hg) {
		pool := kernel.NewPool(g.N())
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		start := time.Now()
		_, err := kernel.BatchDiffuser{Method: kernel.PushACL{Alpha: 1e-9, Eps: 1e-4}, Workers: 1}.Run(ctx, g, pool, []int{0}, nil)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: Run = %v, want context.DeadlineExceeded", kind, err)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("%s: stopped %v after a 20ms deadline", kind, d)
		}
		d := kernel.PushACL{Alpha: 0.15, Eps: 1e-4}
		want, err := d.Diffuse(g, kernel.NewWorkspace(g.N()), []int{3})
		if err != nil {
			t.Fatal(err)
		}
		got, err := kernel.BatchDiffuser{Method: d, Workers: 1}.Run(context.Background(), g, pool, []int{3}, nil)
		if err != nil || got[0] != want {
			t.Fatalf("%s: run after a stopped one = %+v, %v; want %+v", kind, got, err, want)
		}
	}
}

// TestBatchCancellation: cancellation is checked before every seed, so
// a cancelled run returns ctx.Err() and emits nothing past the
// cancellation point — exactly nothing on one worker.
func TestBatchCancellation(t *testing.T) {
	hg := batchTestGraph(t)
	g := gstore.Wrap(hg)
	pool := kernel.NewPool(g.N())
	seeds := batchSeeds(g.N(), 64)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	emitted := 0
	_, err := kernel.BatchDiffuser{Method: kernel.PushACL{Alpha: 0.13, Eps: 3e-5}, Workers: 1}.
		Run(ctx, g, pool, seeds, func(i int, ws *kernel.Workspace, st kernel.Stats) error {
			emitted++
			if emitted == 5 {
				cancel() // mid-batch: 59 seeds remain undispatched
			}
			return nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run after mid-batch cancel = %v, want context.Canceled", err)
	}
	if emitted != 5 {
		t.Fatalf("%d seeds emitted, want exactly the 5 up to the cancellation", emitted)
	}

	// Two workers: at most the seed in flight on the other worker still
	// finishes; no index is emitted twice and none after Run returns.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	var mu sync.Mutex
	seen := make(map[int]int)
	returned := false
	_, err = kernel.BatchDiffuser{Method: kernel.PushACL{Alpha: 0.13, Eps: 3e-5}, Workers: 2}.
		Run(ctx2, g, pool, seeds, func(i int, ws *kernel.Workspace, st kernel.Stats) error {
			mu.Lock()
			defer mu.Unlock()
			if returned {
				t.Errorf("seed[%d] emitted after Run returned", i)
			}
			if seen[i]++; len(seen) == 5 {
				cancel2()
			}
			return nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("2-worker Run after mid-batch cancel = %v, want context.Canceled", err)
	}
	mu.Lock()
	returned = true
	for i, n := range seen {
		if n != 1 {
			t.Errorf("seed[%d] emitted %d times", i, n)
		}
	}
	if len(seen) > 6 {
		t.Errorf("%d seeds emitted, want at most 5 plus the one in flight", len(seen))
	}
	mu.Unlock()

	// A context cancelled before Run starts no work at all.
	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	_, err = kernel.BatchDiffuser{Method: kernel.PushACL{Alpha: 0.13, Eps: 3e-5}}.
		Run(pre, g, pool, seeds, func(i int, ws *kernel.Workspace, st kernel.Stats) error {
			t.Fatal("emit called under a pre-cancelled context")
			return nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run under pre-cancelled ctx = %v, want context.Canceled", err)
	}

	// Walk methods check between steps too: on one worker, Run looks at
	// the context's Err once before any seed and the walk once a step, so
	// a context that reads cancelled from its fourth look on stops the
	// first seed's walk at its third step.
	stepCtx := &cancelAfter{Context: context.Background(), looks: 3}
	_, err = kernel.BatchDiffuser{Method: kernel.NibbleWalk{Eps: 1e-6, Steps: 500}, Workers: 1}.
		Run(stepCtx, g, pool, seeds[:4], func(i int, ws *kernel.Workspace, st kernel.Stats) error {
			t.Errorf("seed[%d] emitted after a mid-walk cancel", i)
			return nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run after mid-walk cancel = %v, want context.Canceled", err)
	}
	if n := stepCtx.seen.Load(); n != 4 {
		t.Fatalf("the context was looked at %d times, want 4", n)
	}
}

// cancelAfter is a context whose Err reads context.Canceled from look
// looks+1 on; its Done never closes, so only Err calls can see it.
type cancelAfter struct {
	context.Context
	looks int32
	seen  atomic.Int32
}

func (c *cancelAfter) Err() error {
	if c.seen.Add(1) > c.looks {
		return context.Canceled
	}
	return nil
}

// TestBatchValidation pins the error surface of Run's own arguments;
// TestDiffuserValidation (kernel_test.go) holds the strategies'
// parameter errors equal through Diffuse and Run.
func TestBatchValidation(t *testing.T) {
	hg := batchTestGraph(t)
	g := gstore.Wrap(hg)
	pool := kernel.NewPool(g.N())
	ctx := context.Background()
	cases := []struct {
		name string
		bd   kernel.BatchDiffuser
		pool *kernel.Pool
		seed []int
		want string
	}{
		{"no method", kernel.BatchDiffuser{}, pool, []int{1}, "needs a Method"},
		{"no seeds", kernel.BatchDiffuser{Method: kernel.PushACL{Alpha: 0.1, Eps: 1e-4}}, pool, nil, "nonempty seed list"},
		{"no pool", kernel.BatchDiffuser{Method: kernel.PushACL{Alpha: 0.1, Eps: 1e-4}}, nil, []int{1}, "needs a workspace pool"},
		{"wrong pool", kernel.BatchDiffuser{Method: kernel.PushACL{Alpha: 0.1, Eps: 1e-4}}, kernel.NewPool(7), []int{1}, "pool sized for"},
		{"bad alpha", kernel.BatchDiffuser{Method: kernel.PushACL{Alpha: 2, Eps: 1e-4}}, pool, []int{1}, "outside (0,1)"},
		{"bad eps", kernel.BatchDiffuser{Method: kernel.PushACL{Alpha: 0.1, Eps: 0}}, pool, []int{1}, "must be positive"},
		{"seed range", kernel.BatchDiffuser{Method: kernel.PushACL{Alpha: 0.1, Eps: 1e-4}}, pool, []int{hg.N()}, "out of range"},
		{"nibble hook", kernel.BatchDiffuser{Method: kernel.NibbleWalk{Eps: 1e-4, Steps: 3, OnStep: func(int, *kernel.Workspace) error { return nil }}}, pool, []int{1}, "NibbleWalk.OnStep has no seed index"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.bd.Run(ctx, g, tc.pool, tc.seed, nil)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Run = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// onesWeighted serves a unit-weight graph as a compact backend that
// carries an explicit float64 weight array of ones, which sends every
// kernel loop down its weighted branch on a graph gstore.Wrap serves
// through the nil-weight unit branch.
func onesWeighted(t testing.TB, hg *graph.Graph) *gstore.Compact {
	t.Helper()
	rowPtrI, adjI, wts := hg.CSR()
	rowPtr := make([]int64, len(rowPtrI))
	for i, v := range rowPtrI {
		rowPtr[i] = int64(v)
	}
	adj := make([]uint32, len(adjI))
	for i, v := range adjI {
		adj[i] = uint32(v)
	}
	c, err := gstore.NewCompactFromParts(gstore.KindCompact, rowPtr, adj, nil,
		append([]float64(nil), wts...), append([]float64(nil), hg.Degrees()...), nil)
	if err != nil {
		t.Fatalf("NewCompactFromParts: %v", err)
	}
	if c.RawWeights64() == nil {
		t.Fatal("compact dropped the explicit weight array")
	}
	return c
}

// TestUnitFastPathMatchesWeightedBranch: the compact form stores no
// weight array for a unit-weight graph, so push, walk steps and their
// batched forms run the hoisted unit branch. The output must be
// byte-identical to the weighted branch reading 1.0 per edge
// (spread*1.0/du == spread/du), sequentially and batched.
func TestUnitFastPathMatchesWeightedBranch(t *testing.T) {
	hg := batchTestGraph(t)
	var unit, weighted gstore.Graph = gstore.Wrap(hg), onesWeighted(t, hg)
	seeds := batchSeeds(hg.N(), 20)
	pool := kernel.NewPool(hg.N())
	for name, method := range batchMethods() {
		run := func(g gstore.Graph) (seq, batch []string) {
			seq, batch = make([]string, len(seeds)), make([]string, len(seeds))
			for i, s := range seeds {
				ws := pool.Get()
				st, err := method.DiffuseContext(context.Background(), g, ws, []int{s})
				if err != nil {
					t.Fatalf("%s: Diffuse(seed %d): %v", name, s, err)
				}
				seq[i] = wsFingerprint(ws, st)
				pool.Put(ws)
			}
			bd := kernel.BatchDiffuser{Method: method, Workers: 1}
			_, err := bd.Run(context.Background(), g, pool, seeds, func(i int, ws *kernel.Workspace, st kernel.Stats) error {
				batch[i] = wsFingerprint(ws, st)
				return nil
			})
			if err != nil {
				t.Fatalf("%s: batch Run: %v", name, err)
			}
			return seq, batch
		}
		unitSeq, unitBatch := run(unit)
		wSeq, wBatch := run(weighted)
		for i := range seeds {
			if unitSeq[i] != wSeq[i] {
				t.Fatalf("%s seed[%d]=%d: unit branch diverges from weighted branch:\nunit:     %.200s\nweighted: %.200s",
					name, i, seeds[i], unitSeq[i], wSeq[i])
			}
			if unitBatch[i] != wBatch[i] {
				t.Fatalf("%s seed[%d]=%d: batched unit branch diverges from batched weighted branch", name, i, seeds[i])
			}
		}
	}
}
