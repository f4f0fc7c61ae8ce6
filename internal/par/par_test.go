package par

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersNormalization(t *testing.T) {
	if got := Workers(0); got != runtime.NumCPU() {
		t.Errorf("Workers(0) = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	if got := Workers(-3); got != runtime.NumCPU() {
		t.Errorf("Workers(-3) = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	if got := Workers(5); got != 5 {
		t.Errorf("Workers(5) = %d", got)
	}
}

func TestForEachRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 500
		counts := make([]int32, n)
		err := ForEachCtx(context.Background(), workers, n, func(i int) error {
			atomic.AddInt32(&counts[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachZeroTasks(t *testing.T) {
	if err := ForEachCtx(context.Background(), 4, 0, func(int) error { return errors.New("must not run") }); err != nil {
		t.Fatal(err)
	}
}

// ForEachCtx's determinism contract: with per-index output slots, the
// assembled result is identical for every worker count.
func TestForEachDeterministicAcrossWorkers(t *testing.T) {
	const n = 300
	run := func(workers int) []int64 {
		out := make([]int64, n)
		if err := ForEachCtx(context.Background(), workers, n, func(i int) error {
			rng := rand.New(rand.NewSource(TaskSeed(42, i)))
			out[i] = rng.Int63()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := run(1)
	for _, workers := range []int{2, 4, 16} {
		got := run(workers)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

// The reported error is the lowest failing index — not the first
// failing completion — for every worker count, and every index below
// the failure runs before the error is observable.
func TestForEachErrorPropagation(t *testing.T) {
	const n = 100
	for _, workers := range []int{1, 4, 32} {
		ran := make([]int32, n)
		err := ForEachCtx(context.Background(), workers, n, func(i int) error {
			atomic.StoreInt32(&ran[i], 1)
			if i == 17 || i == 60 {
				return fmt.Errorf("task %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "task 17 failed" {
			t.Fatalf("workers=%d: err = %v, want task 17's error", workers, err)
		}
		for i := 0; i <= 17; i++ {
			if ran[i] != 1 {
				t.Fatalf("workers=%d: task %d below the failure never ran", workers, i)
			}
		}
	}
}

// Fail-fast: after a failure, unclaimed tasks are skipped rather than
// run to completion (serial is the sharpest case: nothing after the
// failing index runs).
func TestForEachFailsFast(t *testing.T) {
	const n = 50
	var ran int32
	err := ForEachCtx(context.Background(), 1, n, func(i int) error {
		atomic.AddInt32(&ran, 1)
		if i == 5 {
			return fmt.Errorf("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("error lost")
	}
	if ran != 6 {
		t.Fatalf("serial fail-fast ran %d tasks, want 6", ran)
	}
}

func TestLimiterBudget(t *testing.T) {
	l := NewLimiter(3) // 2 spawnable slots beyond the caller
	if !l.TryAcquire() || !l.TryAcquire() {
		t.Fatal("limiter refused slots within budget")
	}
	if l.TryAcquire() {
		t.Fatal("limiter granted a slot beyond budget")
	}
	l.Release()
	if !l.TryAcquire() {
		t.Fatal("released slot not reusable")
	}
	l.Release()
	l.Release()
}

func TestLimiterSerialGrantsNothing(t *testing.T) {
	l := NewLimiter(1)
	if l.TryAcquire() {
		t.Fatal("workers=1 limiter must keep recursion inline")
	}
}

// A fork-join recursion over the limiter must terminate and visit every
// leaf exactly once, whatever the budget.
func TestLimiterForkJoinRecursion(t *testing.T) {
	l := NewLimiter(4)
	var leaves int32
	var recurse func(depth int)
	recurse = func(depth int) {
		if depth == 0 {
			atomic.AddInt32(&leaves, 1)
			return
		}
		if l.TryAcquire() {
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer l.Release()
				recurse(depth - 1)
			}()
			recurse(depth - 1)
			wg.Wait()
		} else {
			recurse(depth - 1)
			recurse(depth - 1)
		}
	}
	recurse(10)
	if leaves != 1024 {
		t.Fatalf("visited %d leaves, want 1024", leaves)
	}
}

func TestTaskSeedProperties(t *testing.T) {
	if TaskSeed(7, 1, 2) != TaskSeed(7, 1, 2) {
		t.Fatal("TaskSeed not deterministic")
	}
	seen := map[int64]string{}
	for a := 0; a < 20; a++ {
		for s := 0; s < 20; s++ {
			seed := TaskSeed(123, a, s)
			if seed <= 0 {
				t.Fatalf("TaskSeed(123,%d,%d) = %d, want positive", a, s, seed)
			}
			key := fmt.Sprintf("(%d,%d)", a, s)
			if prev, dup := seen[seed]; dup {
				t.Fatalf("TaskSeed collision: %s and %s both map to %d", prev, key, seed)
			}
			seen[seed] = key
		}
	}
	// Coordinate order matters: (1,0) and (0,1) are different tasks.
	if TaskSeed(9, 1, 0) == TaskSeed(9, 0, 1) {
		t.Fatal("TaskSeed ignores coordinate order")
	}
	// Different arity must not alias: (1) vs (1,0).
	if TaskSeed(9, 1) == TaskSeed(9, 1, 0) {
		t.Fatal("TaskSeed aliases across coordinate arity")
	}
	if TaskSeed(3, 5) == TaskSeed(4, 5) {
		t.Fatal("TaskSeed ignores base seed")
	}
}

func TestForEachCtxCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran int32
	err := ForEachCtx(ctx, 4, 100, func(i int) error {
		atomic.AddInt32(&ran, 1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if atomic.LoadInt32(&ran) != 0 {
		t.Fatalf("%d tasks ran after pre-cancelled context", ran)
	}
}

func TestForEachCtxStopsDispatching(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran int32
		err := ForEachCtx(ctx, workers, 10000, func(i int) error {
			if atomic.AddInt32(&ran, 1) == 5 {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// Tasks already claimed may finish, but dispatch must stop well
		// short of the full index range.
		if n := atomic.LoadInt32(&ran); int(n) >= 10000 {
			t.Fatalf("workers=%d: all %d tasks ran despite cancellation", workers, n)
		}
	}
}

func TestForEachCtxTaskErrorWinsOverLaterCancel(t *testing.T) {
	boom := errors.New("boom")
	err := ForEachCtx(context.Background(), 3, 50, func(i int) error {
		if i == 7 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want task error", err)
	}
}

// A panicking task must not kill the process from a worker goroutine:
// it surfaces as a panic on the caller's goroutine, where a recover can
// meet it, after every worker has returned. Without a panic the
// lowest-index error still wins.
func TestForEachPanicReachesCaller(t *testing.T) {
	const n = 64
	before := runtime.NumGoroutine()
	for _, workers := range []int{1, 2, 8} {
		var running atomic.Int32
		recovered := func() (p any) {
			defer func() { p = recover() }()
			err := ForEachCtx(context.Background(), workers, n, func(i int) error {
				running.Add(1)
				defer running.Add(-1)
				if i == 9 {
					panic("task 9 blew up")
				}
				return nil
			})
			t.Errorf("workers=%d: returned %v instead of panicking", workers, err)
			return nil
		}()
		if recovered != "task 9 blew up" {
			t.Errorf("workers=%d: recovered %v, want task 9's panic value", workers, recovered)
		}
		if r := running.Load(); r != 0 {
			t.Errorf("workers=%d: %d tasks still running after the panic surfaced", workers, r)
		}
	}
	err := ForEachCtx(context.Background(), 8, n, func(i int) error {
		if i == 3 || i == 40 {
			return fmt.Errorf("task %d failed", i)
		}
		return nil
	})
	if err == nil || err.Error() != "task 3 failed" {
		t.Errorf("err = %v, want the lowest failing index", err)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before, %d left running", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
	}
}
