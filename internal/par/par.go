// Package par is the repository's shared worker-pool substrate: every
// embarrassingly parallel sweep — the kernel's batch engine, the NCP
// profile engines, experiment fan-outs, graphd jobs — shares one
// scheduling idiom with one determinism contract:
//
//   - ForEachCtx runs an indexed task set across a fixed number of
//     workers. Tasks write only to their own index's slot, so the
//     assembled output is identical whatever the worker count.
//   - Limiter bounds fork-join recursion (e.g. the flow profile's
//     recursive bisection) without the deadlock risk of a blocking pool:
//     a branch that cannot get a worker runs inline on its parent's
//     goroutine.
//   - TaskSeed derives statistically independent per-task RNG seeds from
//     one base seed and the task's coordinates, so randomized tasks are
//     reproducible and independent of scheduling order.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a requested worker count: values <= 0 select
// runtime.NumCPU().
func Workers(requested int) int {
	if requested <= 0 {
		return runtime.NumCPU()
	}
	return requested
}

// ForEachCtx runs fn(i) for every i in [0, n) across at most `workers`
// goroutines (<= 0 → runtime.NumCPU()). Tasks must confine their writes
// to per-index slots (or otherwise synchronize); under that contract the
// assembled result is deterministic and independent of the worker count.
//
// On failure ForEachCtx fails fast: tasks not yet claimed when a task
// errors are skipped (callers discard results on error, so finishing
// them would be wasted work). The returned error is still deterministic
// — the failing task with the lowest index. Indices are claimed in
// order, so every index below the lowest failure has already been
// claimed, and runs to completion, before that failure can be observed;
// a task that would fail at a lower index therefore always gets to
// report.
//
// A task that panics does so on the caller's goroutine, where the
// caller's recover (if it has one) is: the workers stop claiming
// indices, ForEachCtx waits for them all, and re-panics with the first
// panic's value.
//
// Cancellation is cooperative: once ctx is done, no further indices are
// dispatched (tasks already running are allowed to finish) and
// ctx.Err() is returned unless a task failed first. This is the hook
// that lets long-running sweeps — NCP profiles, experiment fan-outs,
// graphd jobs — be cancelled or deadlined mid-flight without each task
// needing to poll the context itself.
func ForEachCtx(ctx context.Context, workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	done := ctx.Done()
	if workers == 1 {
		for i := 0; i < n; i++ {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next int64 = -1
	var failed int32
	var panicked atomic.Pointer[any] // the first panic's value
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panicked.CompareAndSwap(nil, &p)
					atomic.StoreInt32(&failed, 1)
				}
			}()
			for atomic.LoadInt32(&failed) == 0 {
				select {
				case <-done:
					return
				default:
				}
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					errs[i] = err
					atomic.StoreInt32(&failed, 1)
					return
				}
			}
		}()
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(*p)
	}
	if err := firstError(errs); err != nil {
		return err
	}
	return ctx.Err()
}

func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Limiter is a non-blocking concurrency budget for fork-join recursion.
// A recursive branch calls TryAcquire; on success it may run in a fresh
// goroutine (and must Release when done), on failure it runs inline on
// the caller's goroutine. Because acquisition never blocks, a parent
// waiting for its children cannot deadlock the pool however deep the
// recursion goes.
type Limiter struct {
	slots chan struct{}
}

// NewLimiter returns a Limiter with workers-1 spawnable slots (<= 0 →
// runtime.NumCPU()-1): the caller's own goroutine is the implicit first
// worker, so a Limiter for 1 worker never grants a slot and the
// recursion runs fully serial.
func NewLimiter(workers int) *Limiter {
	return &Limiter{slots: make(chan struct{}, Workers(workers)-1)}
}

// TryAcquire claims a goroutine slot if one is free. It never blocks.
func (l *Limiter) TryAcquire() bool {
	select {
	case l.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

// Release returns a slot claimed by TryAcquire.
func (l *Limiter) Release() { <-l.slots }

// TaskSeed derives a deterministic, well-mixed RNG seed for the task at
// the given coordinates (e.g. α-index and seed-index of an NCP sweep,
// or the path through a recursion tree) from a base seed. Distinct
// coordinates yield statistically independent seeds via splitmix64
// finalization, so per-task rand.Rand streams do not overlap the way
// base+offset seeding would. The result is always positive, which keeps
// it usable for APIs that reserve 0 as "unset".
func TaskSeed(base int64, coords ...int) int64 {
	h := mix64(uint64(base))
	for _, c := range coords {
		h = mix64(h ^ uint64(uint32(c)) ^ 0xa5a5a5a500000000)
	}
	seed := int64(h >> 1) // clear the sign bit
	if seed == 0 {
		seed = 1
	}
	return seed
}

// mix64 is the splitmix64 finalizer (Steele–Lea–Flood), a bijective
// avalanche mix on 64 bits.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
