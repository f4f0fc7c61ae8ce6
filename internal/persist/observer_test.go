package persist

import (
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/gstore"
)

// recordingObserver collects every ObservePersist callback. The mutex
// matters: boot-time recovery and appends run on one goroutine in
// these tests, but the type doubles as the race-test observer.
type recordingObserver struct {
	mu    sync.Mutex
	calls map[Op][]int64 // op -> byte counts, in arrival order
	durs  map[Op][]time.Duration
}

func newRecordingObserver() *recordingObserver {
	return &recordingObserver{calls: map[Op][]int64{}, durs: map[Op][]time.Duration{}}
}

func (o *recordingObserver) ObservePersist(op Op, d time.Duration, bytes int64) {
	o.mu.Lock()
	o.calls[op] = append(o.calls[op], bytes)
	o.durs[op] = append(o.durs[op], d)
	o.mu.Unlock()
}

func (o *recordingObserver) count(op Op) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.calls[op])
}

func (o *recordingObserver) bytes(op Op) []int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]int64(nil), o.calls[op]...)
}

// TestObserverCoversEveryOp drives one full durability lifecycle —
// snapshot write and load, WAL create/append/close, reopen with replay
// — and checks each operation reports exactly once with a sane byte
// count and a non-negative duration.
func TestObserverCoversEveryOp(t *testing.T) {
	root := t.TempDir()
	obs := newRecordingObserver()
	d, _, err := Recover(root, gstore.KindCompact, obs, t.Logf)
	if err != nil {
		t.Fatal(err)
	}

	g := gen.RingOfCliques(6, 5)
	if err := d.SaveSnapshot("ring", g); err != nil {
		t.Fatal(err)
	}
	if got := obs.bytes(OpSnapshotWrite); len(got) != 1 || got[0] <= 0 {
		t.Fatalf("snapshot write observations = %v, want one positive byte count", got)
	}
	if _, err := d.LoadSnapshot("ring"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.LoadCompactSnapshot("ring"); err != nil {
		t.Fatal(err)
	}
	if got := obs.bytes(OpSnapshotLoad); len(got) != 2 || got[0] <= 0 || got[0] != got[1] {
		t.Fatalf("snapshot load observations = %v, want two equal positive byte counts", got)
	}

	w, err := d.CreateWAL("stream", 10)
	if err != nil {
		t.Fatal(err)
	}
	batch := []Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2.5}}
	if err := w.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	wantRec := int64(8 + len(batch)*walEdgeBytes)
	if got := obs.bytes(OpWALFsync); len(got) != 1 || got[0] != wantRec {
		t.Fatalf("WAL fsync observations = %v, want one record of %d bytes", got, wantRec)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen through the Dir: the replay itself reports, and the
	// returned WAL inherits the observer for further appends.
	w2, _, batches, err := d.OpenWAL("stream")
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 1 {
		t.Fatalf("replayed %d batches, want 1", len(batches))
	}
	if got := obs.bytes(OpRecoveryReplay); len(got) != 1 || got[0] <= 0 {
		t.Fatalf("recovery observations = %v, want one positive byte count", got)
	}
	if err := w2.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if got := obs.count(OpWALFsync); got != 2 {
		t.Fatalf("WAL reopened through Dir did not inherit the observer: %d fsync observations, want 2", got)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	obs.mu.Lock()
	defer obs.mu.Unlock()
	for op, durs := range obs.durs {
		for _, d := range durs {
			if d < 0 {
				t.Errorf("%s reported negative duration %v", op, d)
			}
		}
	}
}

// TestNilObserverZeroCost locks the "zero overhead when nil" contract:
// an append on a WAL without an observer allocates exactly as much as
// one with an observer attached (the telemetry itself is
// allocation-free, and the nil path skips even the clock reads — the
// guard is `w.obs != nil` around every time.Now).
func TestNilObserverZeroCost(t *testing.T) {
	root := t.TempDir()
	mk := func(name string, obs Observer) *WAL {
		w, err := CreateWAL(filepath.Join(root, name+WALExt), 10)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		if obs != nil {
			w.obs = obs
		}
		return w
	}
	batch := []Edge{{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 1}}
	bare := mk("bare", nil)
	observed := mk("observed", newRecordingObserver())
	measure := func(w *WAL) float64 {
		return testing.AllocsPerRun(20, func() {
			if err := w.AppendBatch(batch); err != nil {
				t.Fatal(err)
			}
		})
	}
	if err := bare.AppendBatch(batch); err != nil { // warm both paths
		t.Fatal(err)
	}
	if err := observed.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	nilAllocs, obsAllocs := measure(bare), measure(observed)
	if nilAllocs > obsAllocs {
		t.Errorf("nil-observer AppendBatch allocates more (%v) than the observed path (%v)", nilAllocs, obsAllocs)
	}
	// The encode path is two buffer allocations (payload + record); the
	// nil-observer path must add nothing on top.
	if nilAllocs > 2 {
		t.Errorf("nil-observer AppendBatch allocates %v per call, want <= 2 (payload + record)", nilAllocs)
	}
}

// TestOpStrings pins the metric-name fragments the service layer
// splices into the graphd_persist_* family names.
func TestOpStrings(t *testing.T) {
	want := map[Op]string{
		OpWALFsync:       "wal_fsync",
		OpSnapshotWrite:  "snapshot_write",
		OpSnapshotLoad:   "snapshot_load",
		OpRecoveryReplay: "recovery",
		NumOps:           "unknown",
	}
	for op, s := range want {
		if got := op.String(); got != s {
			t.Errorf("Op(%d).String() = %q, want %q", int(op), got, s)
		}
	}
}
