package kernel_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/gen"
	"repro/internal/gstore"
	"repro/internal/kernel"
)

// TestWorkspaceServesAnyGraphOfItsClass: one workspace of the 4096
// class, which serves 3841 to 4096 nodes, cycles through graphs of
// 3900, 4096 and 3841 nodes, each run leaving stale records, queue marks
// and a walk plane behind for the next graph: the walk plane the
// 3900-node graph allocates serves the 4096-node one, whose records
// above 3900 are stale on the 3841-node one. On every graph a push, a Nibble walk, a heat
// kernel, the push's sweep and a caller's-list sweep give the bits a
// fresh NewWorkspace(n) gives, and an id in [n, capacity) is refused by
// SweepOrderList at the index a fresh workspace refuses it. Neither a
// NewWorkspace(3900), sized for a graph of the class but not at its
// capacity, nor a workspace of the class below, put through the 4096
// class's handle, ever comes out of it.
func TestWorkspaceServesAnyGraphOfItsClass(t *testing.T) {
	// One P and no collection: a put workspace is the next get's.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const capacity = 4096
	ctx := context.Background()
	var ws *kernel.Workspace
	for i, n := range []int{3900, 4096, 3841} {
		hg, err := gen.ForestFire(gen.ForestFireConfig{N: n, FwdProb: 0.35, Ambs: 1}, rand.New(rand.NewSource(int64(n))))
		if err != nil {
			t.Fatal(err)
		}
		g := gstore.Wrap(hg)
		pool := kernel.NewPool(n)
		got := pool.Get()
		if ws != nil && got != ws && !raceEnabled {
			t.Fatalf("n=%d: the class handed out another workspace than the one put back", n)
		}
		ws = got
		if ws.Capacity() != capacity || ws.N() != n {
			t.Fatalf("n=%d: workspace of capacity %d serving %d nodes", n, ws.Capacity(), ws.N())
		}
		fresh := kernel.NewWorkspace(n)
		seeds := []int{n - 1, i}
		for _, m := range []kernel.Diffuser{
			kernel.PushACL{Alpha: 0.05, Eps: 1e-6},
			kernel.NibbleWalk{Eps: 1e-5, Steps: 12},
			kernel.HeatKernel{T: 3, Eps: 1e-5},
			kernel.PushACL{Alpha: 0.01, Eps: 1e-5},
		} {
			st, err := m.DiffuseContext(ctx, g, ws, seeds)
			if err != nil {
				t.Fatalf("n=%d %T: %v", n, m, err)
			}
			wantSt, err := m.DiffuseContext(ctx, g, fresh, seeds)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := wsFingerprint(ws, st), wsFingerprint(fresh, wantSt); got != want {
				t.Fatalf("n=%d %T: pooled run differs from a fresh workspace's\ngot  %.300s\nwant %.300s", n, m, got, want)
			}
		}
		if got, want := sweepOf(g, ws, ws.SweepOrderP(g)), sweepOf(g, fresh, fresh.SweepOrderP(g)); got != want {
			t.Fatalf("n=%d: sweep %s, fresh %s", n, got, want)
		}
		var nodes []int
		var vals []float64
		ws.ForEachP(func(u int, x float64) {
			nodes = append(nodes, u)
			vals = append(vals, x)
		})
		at := func(i int) (int, float64) { return nodes[i], vals[i] }
		k, bad := ws.SweepOrderList(g, len(nodes), at)
		wantK, wantBad := fresh.SweepOrderList(g, len(nodes), at)
		if got, want := sweepOf(g, ws, k), sweepOf(g, fresh, wantK); bad != -1 || wantBad != -1 || got != want {
			t.Fatalf("n=%d: list sweep %s (bad %d), fresh %s (bad %d)", n, got, bad, want, wantBad)
		}
		if n < capacity {
			nodes[len(nodes)/2] = capacity - 1 // in range for the planes, not for the graph
			k, bad := ws.SweepOrderList(g, len(nodes), at)
			wantK, wantBad := fresh.SweepOrderList(g, len(nodes), at)
			if k != wantK || bad != wantBad || bad != len(nodes)/2 {
				t.Fatalf("n=%d: id %d refused as (%d, %d), fresh (%d, %d)", n, capacity-1, k, bad, wantK, wantBad)
			}
		}
		pool.Put(ws)
	}

	pool := kernel.NewPool(capacity)
	pool.Put(kernel.NewWorkspace(3900))
	pool.Put(kernel.NewWorkspace(3840))
	for range 64 {
		ws := pool.Get()
		defer pool.Put(ws)
		if ws.Capacity() != capacity {
			t.Fatalf("the 4096 class handed out a workspace of capacity %d", ws.Capacity())
		}
	}
}

// sweepOf prints the loaded sweep order of k nodes, its best prefix and
// the prefix's conductance bits.
func sweepOf(g gstore.Graph, ws *kernel.Workspace, k int) string {
	prefix, phi := ws.SweepBest(g)
	return fmt.Sprint(k, prefix, math.Float64bits(phi), ws.SweepNodes(nil, k))
}
