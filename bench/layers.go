package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/gstore"
	"repro/internal/kernel"
	"repro/internal/local"
	"repro/internal/persist"
)

// Repeat counts of the layer timings below. Each figure is the median
// of its repeats.
const (
	layerReps    = 5   // gstore builds and opens, snapshot writes
	layerWALReps = 64  // fsynced WAL appends
	layerSeeds   = 256 // diffusions per backend (fewer when they are deep)
)

// layerTimings times the storage and kernel layers directly, from
// outside, on the workload's own graph and diffusion: the three ways to
// open a snapshot, the compact build, snapshot and WAL writes, and the
// single-seed and batched push on all three backends.
func layerTimings(ctx context.Context, w workload, m metricSet) error {
	hg, d, seeds, err := w.layerInput()
	if err != nil {
		return err
	}
	root, err := os.MkdirTemp("", "graphbench-layers-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	dir, err := persist.OpenDir(root)
	if err != nil {
		return err
	}

	const snap = "layer"
	writeMs, err := medianMs(layerReps, func() error { return dir.SaveSnapshot(snap, hg) })
	if err != nil {
		return err
	}
	fi, err := os.Stat(dir.SnapshotPath(snap))
	if err != nil {
		return err
	}
	m.set("persist.snapshot_write_ms", writeMs, "ms")
	m.set("persist.snapshot_bytes_per_edge", float64(fi.Size())/float64(max(hg.M(), 1)), "B")

	if err := walTimings(dir, hg.N(), m); err != nil {
		return err
	}

	var compact, mapped *gstore.Compact
	defer func() {
		if mapped != nil {
			mapped.Close()
		}
	}()
	buildMs, err := medianMs(layerReps, func() (err error) { compact, err = gstore.NewCompact(hg); return err })
	if err != nil {
		return err
	}
	m.set("gstore.build_compact_ms", buildMs, "ms")
	opens := []struct {
		kind gstore.Kind
		open func() error
	}{
		{gstore.KindHeap, func() error { _, err := dir.LoadSnapshot(snap); return err }},
		{gstore.KindCompact, func() error { _, err := dir.LoadCompactSnapshot(snap); return err }},
		{gstore.KindMmap, func() (err error) {
			if mapped != nil {
				if err := mapped.Close(); err != nil {
					return err
				}
			}
			mapped, err = dir.MapSnapshot(snap)
			return err
		}},
	}
	for _, o := range opens {
		ms, err := medianMs(layerReps, o.open)
		if err != nil {
			return fmt.Errorf("opening the snapshot as %s: %w", o.kind, err)
		}
		m.set("gstore.open_ms."+string(o.kind), ms, "ms")
	}

	// Deep diffusions cost milliseconds each; keep the whole step near a
	// second per backend.
	n := min(layerSeeds, len(seeds))
	if d.Eps < 1e-5 {
		n = min(n, 48)
	}
	seeds = seeds[:n]
	pool := kernel.NewPool(hg.N())
	backends := []struct {
		kind gstore.Kind
		g    gstore.Graph
	}{{gstore.KindHeap, gstore.Wrap(hg)}, {gstore.KindCompact, compact}, {gstore.KindMmap, mapped}}
	for _, b := range backends {
		// An untimed pass first, so the first backend is not the one that
		// pays for faulting the workspace in.
		if _, _, err := diffuseTimings(b.g, pool, d, seeds[:min(16, n)]); err != nil {
			return err
		}
		us, sweepUs, err := diffuseTimings(b.g, pool, d, seeds)
		if err != nil {
			return err
		}
		m.set("kernel.diffuse_us."+string(b.kind), us, "us")
		if b.kind != w.backend() {
			continue
		}
		m.set("local.sweep_us", sweepUs, "us")
		allocs, err := diffuseAllocs(b.g, pool, d, seeds)
		if err != nil {
			return err
		}
		m.set("kernel.allocs_per_op", allocs, "count")
		batchUs, err := batchTimings(ctx, b.g, pool, d, seeds)
		if err != nil {
			return err
		}
		m.set("kernel.batch_us_per_seed", batchUs, "us")
	}
	return nil
}

// medianMs runs fn reps times and returns the median duration in ms.
func medianMs(reps int, fn func() error) (float64, error) {
	ms := make([]float64, reps)
	for i := range ms {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ms[i] = float64(time.Since(t0)) / 1e6
	}
	return median(ms), nil
}

// walTimings appends fsynced batches of the ingest cycle's size to a
// fresh log.
func walTimings(dir *persist.Dir, nodes int, m metricSet) (err error) {
	const name = "layerwal"
	wal, err := dir.CreateWAL(name, nodes)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := wal.Close(); err == nil {
			err = cerr
		}
	}()
	before, err := os.Stat(dir.WALPath(name))
	if err != nil {
		return err
	}
	batch := make([]persist.Edge, cycleBatchLen)
	for i := range batch {
		batch[i] = persist.Edge{U: i % nodes, V: (i + 1) % nodes, W: 1}
	}
	us := make([]float64, layerWALReps)
	for i := range us {
		t0 := time.Now()
		if err := wal.AppendBatch(batch); err != nil {
			return err
		}
		us[i] = float64(time.Since(t0)) / 1e3
	}
	after, err := os.Stat(dir.WALPath(name))
	if err != nil {
		return err
	}
	m.set("persist.wal_append_us", median(us), "us")
	m.set("persist.wal_bytes_per_edge", float64(after.Size()-before.Size())/float64(layerWALReps*len(batch)), "B")
	return nil
}

// diffuseTimings runs one pooled single-seed push (and a sweep over its
// result) per seed and returns the median of each in µs.
func diffuseTimings(g gstore.Graph, pool *kernel.Pool, d kernel.PushACL, seeds []int) (diffuseUs, sweepUs float64, err error) {
	ws := pool.Get()
	defer pool.Put(ws)
	push := make([]float64, len(seeds))
	sweep := make([]float64, len(seeds))
	seed := make([]int, 1)
	for i, s := range seeds {
		seed[0] = s
		t0 := time.Now()
		if _, err := d.Diffuse(g, ws, seed); err != nil {
			return 0, 0, err
		}
		t1 := time.Now()
		if _, err := local.WorkspaceSweepCut(g, ws); err != nil {
			return 0, 0, err
		}
		push[i] = float64(t1.Sub(t0)) / 1e3
		sweep[i] = float64(time.Since(t1)) / 1e3
	}
	return median(push), median(sweep), nil
}

// diffuseAllocs counts heap allocations per pooled push; the kernel's
// contract is none.
func diffuseAllocs(g gstore.Graph, pool *kernel.Pool, d kernel.PushACL, seeds []int) (float64, error) {
	ws := pool.Get()
	defer pool.Put(ws)
	seed := make([]int, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, s := range seeds {
		seed[0] = s
		if _, err := d.Diffuse(g, ws, seed); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(len(seeds)), nil
}

// batchTimings runs the batch engine over the seeds in requests of
// batchK, as the ppr:batch handler does, and returns the median µs per
// seed.
func batchTimings(ctx context.Context, g gstore.Graph, pool *kernel.Pool, d kernel.PushACL, seeds []int) (float64, error) {
	bd := kernel.BatchDiffuser{Method: d}
	var us []float64
	for lo := 0; lo < len(seeds); lo += batchK {
		chunk := seeds[lo:min(lo+batchK, len(seeds))]
		t0 := time.Now()
		if _, err := bd.Run(ctx, g, pool, chunk, nil); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(t0))/1e3/float64(len(chunk)))
	}
	return median(us), nil
}
