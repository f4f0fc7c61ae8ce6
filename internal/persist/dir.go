package persist

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/gstore"
)

// Counters are the persistence subsystem's monotonic event counts,
// exported by graphd's /metrics endpoint.
type Counters struct {
	SnapshotsWritten atomic.Uint64
	SnapshotsLoaded  atomic.Uint64
	WALCreated       atomic.Uint64
	WALAppends       atomic.Uint64
	WALReplayed      atomic.Uint64
	Quarantined      atomic.Uint64
}

// Dir manages graphd's data directory: one "<name>.gsnap" snapshot per
// sealed graph, one "<name>.wal" log per streaming graph, and
// "<file>.corrupt" quarantine renames for artifacts that fail
// validation. Graph names pass CheckName, so they embed into filenames
// verbatim.
//
// Dir owns every durability rule the store relies on: what recovery
// keeps, replays or quarantines (Recover), which backend a snapshot is
// served from (Open), and the order in which files land and go (Put,
// Seal, Remove). A nil *Dir is an in-memory store's: Open, Put and Seal
// then serve the graph they are given and write nothing, and Remove
// does nothing.
type Dir struct {
	root     string
	counters Counters
	obs      Observer                         // nil: no durability telemetry
	logf     func(format string, args ...any) // recovery and non-fatal I/O events
}

// QuarantineExt is the suffix appended to corrupt files set aside during
// recovery.
const QuarantineExt = ".corrupt"

// OpenDir opens (creating if needed) a data directory, without
// recovering its contents.
func OpenDir(root string) (*Dir, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("persist: data dir: %w", err)
	}
	return &Dir{root: root, logf: func(string, ...any) {}}, nil
}

// Recovered is one graph Recover brought back: sealed (Graph set) or
// streaming (WAL and Builder set, Edges edges replayed into Builder).
type Recovered struct {
	Name    string
	Graph   gstore.Graph
	WAL     *WAL
	Builder *graph.Builder
	Edges   int
}

// Recover opens (creating if needed) the data directory root and
// rebuilds what it holds, in name order: every valid snapshot as a
// sealed graph served from backend kind, then every write-ahead log
// without a snapshot replayed back into a stream. A log beside a valid
// snapshot is a seal that crashed before retiring it; the snapshot
// wins and the log is deleted. A file with an invalid name, or one that
// fails to load or replay, is quarantined with a log line instead of
// failing boot, so only directory-level failures are errors. obs (if
// non-nil) observes the recovery itself, and logf receives one line per
// recovery event and, later, the Dir's non-fatal I/O failures.
func Recover(root string, kind gstore.Kind, obs Observer, logf func(format string, args ...any)) (*Dir, []Recovered, error) {
	d, err := OpenDir(root)
	if err != nil {
		return nil, nil, err
	}
	d.obs, d.logf = obs, logf
	snaps, wals, err := d.Scan()
	if err != nil {
		return nil, nil, err
	}
	var out []Recovered
	sealed := make(map[string]bool, len(snaps))
	for _, name := range snaps {
		if err := CheckName(name); err != nil {
			d.quarantine(d.SnapshotPath(name), fmt.Errorf("invalid graph name: %w", err))
			continue
		}
		g, err := d.Open(name, nil, kind)
		if err != nil {
			d.quarantine(d.SnapshotPath(name), err)
			continue
		}
		sealed[name] = true
		out = append(out, Recovered{Name: name, Graph: g})
		logf("persist: recovered sealed graph %q from snapshot (n=%d m=%d backend=%s)",
			name, g.N(), g.M(), g.Backend())
	}
	for _, name := range wals {
		if sealed[name] {
			if err := remove(d.WALPath(name)); err != nil {
				logf("persist: removing stale WAL for sealed graph %q: %v", name, err)
			} else {
				logf("persist: removed stale WAL for sealed graph %q (snapshot wins)", name)
			}
			continue
		}
		if err := CheckName(name); err != nil {
			d.quarantine(d.WALPath(name), fmt.Errorf("invalid graph name: %w", err))
			continue
		}
		r, batches, err := d.replay(name)
		if err != nil {
			d.quarantine(d.WALPath(name), err)
			continue
		}
		out = append(out, r)
		logf("persist: replayed WAL for streaming graph %q (%d nodes, %d edges in %d batches)",
			name, r.WAL.Nodes(), r.Edges, batches)
	}
	return d, out, nil
}

// replay reopens the named log and applies its batches to a fresh
// builder, refusing any edge the store would have refused to log.
func (d *Dir) replay(name string) (Recovered, int, error) {
	w, nodes, batches, err := d.OpenWAL(name)
	if err != nil {
		return Recovered{}, 0, err
	}
	r := Recovered{Name: name, WAL: w, Builder: graph.NewBuilder(nodes)}
	for _, batch := range batches {
		for _, e := range batch {
			if err := e.Check(nodes); err != nil {
				w.Close()
				return Recovered{}, 0, fmt.Errorf("replayed edge %w", err)
			}
			r.Builder.AddWeightedEdge(e.U, e.V, e.W)
		}
		r.Edges += len(batch)
	}
	return r, len(batches), nil
}

// CheckName reports why name cannot name a graph: graph names are 1-128
// characters of [A-Za-z0-9._-], which keeps them safe as filenames.
func CheckName(name string) error {
	if name == "" || len(name) > 128 {
		return errors.New("graph name must be 1-128 characters")
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return fmt.Errorf("graph name %q contains invalid character %q", name, r)
		}
	}
	return nil
}

// Counters exposes the live event counters; nil for a nil Dir.
func (d *Dir) Counters() *Counters {
	if d == nil {
		return nil
	}
	return &d.counters
}

// SnapshotPath returns the snapshot file path for a graph name.
func (d *Dir) SnapshotPath(name string) string {
	return filepath.Join(d.root, name+SnapshotExt)
}

// WALPath returns the write-ahead-log file path for a graph name.
func (d *Dir) WALPath(name string) string {
	return filepath.Join(d.root, name+WALExt)
}

// observed runs fn on path and, when it succeeds, counts it on c and
// reports op with its latency and the file's size. The clock and the
// stat only run when an observer is attached, so the nil path costs
// nothing.
func observed[T any](d *Dir, op Op, c *atomic.Uint64, path string, fn func(string) (T, error)) (T, error) {
	var start time.Time
	if d.obs != nil {
		start = time.Now()
	}
	v, err := fn(path)
	if err != nil {
		return v, err
	}
	c.Add(1)
	if d.obs != nil {
		var bytes int64
		if fi, err := os.Stat(path); err == nil {
			bytes = fi.Size()
		}
		d.obs.ObservePersist(op, time.Since(start), bytes)
	}
	return v, nil
}

// SaveSnapshot converts a heap graph to the compact form and writes its
// snapshot atomically. It goes, with LoadSnapshot, once nothing holds a
// heap graph to save (ROADMAP items 1 and 13d).
func (d *Dir) SaveSnapshot(name string, g *graph.Graph) error {
	c, err := gstore.NewCompact(g)
	if err != nil {
		return err
	}
	return d.writeSnapshot(name, c)
}

// writeSnapshot atomically writes g's snapshot under name.
func (d *Dir) writeSnapshot(name string, g *gstore.Compact) error {
	_, err := observed(d, OpSnapshotWrite, &d.counters.SnapshotsWritten, d.SnapshotPath(name),
		func(path string) (struct{}, error) { return struct{}{}, WriteSnapshotFile(path, g) })
	return err
}

// LoadSnapshot reads and validates the graph's snapshot.
func (d *Dir) LoadSnapshot(name string) (*graph.Graph, error) {
	return observed(d, OpSnapshotLoad, &d.counters.SnapshotsLoaded, d.SnapshotPath(name), ReadSnapshotFile)
}

// LoadCompactSnapshot reads and validates the graph's snapshot into
// the compact in-heap backend.
func (d *Dir) LoadCompactSnapshot(name string) (*gstore.Compact, error) {
	return observed(d, OpSnapshotLoad, &d.counters.SnapshotsLoaded, d.SnapshotPath(name), ReadCompactFile)
}

// MapSnapshot memory-maps and validates the graph's snapshot, serving
// adjacency straight off the file. Fails with ErrNotMappable when the
// snapshot or platform cannot be mapped (v1 format, big-endian host).
func (d *Dir) MapSnapshot(name string) (*gstore.Compact, error) {
	return observed(d, OpSnapshotLoad, &d.counters.SnapshotsLoaded, d.SnapshotPath(name), OpenMapped)
}

// Open serves the named graph from backend kind: mmap, or compact for
// any other kind (gstore.ParseKind admits no third). g is the graph in
// hand when there is one (Put, Seal): compact then serves g itself
// without reading the snapshot back; recovery passes nil and the
// snapshot is loaded. mmap maps the snapshot, which a nil Dir cannot
// do. A snapshot that cannot be mapped is served compact instead, with
// a log line, and so is a graph in hand whose mapping failed for any
// reason, since its data is intact.
func (d *Dir) Open(name string, g *gstore.Compact, kind gstore.Kind) (gstore.Graph, error) {
	if kind == gstore.KindMmap {
		c, err := d.MapSnapshot(name)
		if err == nil {
			return c, nil
		}
		if g == nil && !errors.Is(err, ErrNotMappable) {
			return nil, err
		}
		d.logf("persist: graph %q: %v; serving compact instead", name, err)
	}
	if g != nil {
		return g, nil
	}
	return d.LoadCompactSnapshot(name)
}

// Put makes g durable as the named graph's snapshot and serves it from
// backend kind (see Open); once the snapshot is written, Open cannot
// fail.
func (d *Dir) Put(name string, g *gstore.Compact, kind gstore.Kind) (gstore.Graph, error) {
	if d != nil {
		if err := d.writeSnapshot(name, g); err != nil {
			return nil, err
		}
	}
	return d.Open(name, g, kind)
}

// Seal is Put for the graph a stream built, followed by retiring the
// stream's log w. The snapshot lands first: a crash between the two
// leaves both files, and Recover lets the snapshot win. On error the
// log is untouched, so the stream can be sealed again.
func (d *Dir) Seal(name string, g *gstore.Compact, w *WAL, kind gstore.Kind) (gstore.Graph, error) {
	sg, err := d.Put(name, g, kind)
	if err != nil || d == nil {
		return sg, err
	}
	if err := w.Close(); err != nil {
		d.logf("persist: closing WAL of sealed graph %q: %v", name, err)
	}
	if err := remove(d.WALPath(name)); err != nil {
		d.logf("persist: removing WAL of sealed graph %q: %v", name, err)
	}
	return sg, nil
}

// CreateWAL opens a fresh write-ahead log for a streaming graph.
func (d *Dir) CreateWAL(name string, nodes int) (*WAL, error) {
	w, err := CreateWAL(d.WALPath(name), nodes)
	if err != nil {
		return nil, err
	}
	d.counters.WALCreated.Add(1)
	return d.instrument(w), nil
}

// OpenWAL reopens and replays a graph's write-ahead log.
func (d *Dir) OpenWAL(name string) (*WAL, int, [][]Edge, error) {
	var nodes int
	var batches [][]Edge
	w, err := observed(d, OpRecoveryReplay, &d.counters.WALReplayed, d.WALPath(name), func(path string) (w *WAL, err error) {
		w, nodes, batches, err = OpenWAL(path)
		return w, err
	})
	if err != nil {
		return nil, 0, nil, err
	}
	return d.instrument(w), nodes, batches, nil
}

// instrument attaches the Dir's telemetry to a log it opened: the observer
// sees every append, and the append counter counts it.
func (d *Dir) instrument(w *WAL) *WAL {
	w.obs, w.appends = d.obs, &d.counters.WALAppends
	return w
}

// Remove retires a deleted graph's on-disk artifacts: it closes w, its
// open log if any, and deletes the snapshot and the log. Failures are
// logged, not returned: the graph is gone from the store either way.
func (d *Dir) Remove(name string, w *WAL) {
	if d == nil {
		return
	}
	if err := w.Close(); err != nil {
		d.logf("persist: closing WAL of deleted graph %q: %v", name, err)
	}
	for _, p := range []string{d.SnapshotPath(name), d.WALPath(name)} {
		if err := remove(p); err != nil {
			d.logf("persist: removing files of deleted graph %q: %v", name, err)
		}
	}
}

// remove deletes path; a file already gone is not an error.
func remove(path string) error {
	if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("persist: remove %s: %w", path, err)
	}
	return nil
}

// Quarantine renames a corrupt file aside (to "<path>.corrupt",
// uniquified when a previous quarantine already claimed that name) so
// boot can proceed while the bytes stay available for inspection. It
// returns the quarantine path.
func (d *Dir) Quarantine(path string) (string, error) {
	dst := path + QuarantineExt
	for i := 1; ; i++ {
		if _, err := os.Lstat(dst); os.IsNotExist(err) {
			break
		}
		dst = fmt.Sprintf("%s%s.%d", path, QuarantineExt, i)
	}
	if err := os.Rename(path, dst); err != nil {
		return "", fmt.Errorf("persist: quarantine %s: %w", path, err)
	}
	d.counters.Quarantined.Add(1)
	_ = syncDir(d.root) // best effort: the rename has happened either way
	return dst, nil
}

// quarantine sets a corrupt file aside and logs the clear one-line
// diagnostic the operator will grep for.
func (d *Dir) quarantine(path string, cause error) {
	dst, err := d.Quarantine(path)
	if err != nil {
		d.logf("persist: QUARANTINE FAILED for %s (%v): %v", path, cause, err)
		return
	}
	d.logf("persist: quarantined corrupt file %s -> %s: %v", path, dst, cause)
}

// Scan lists the graph names that have a snapshot and the names that
// have a write-ahead log, each sorted. Quarantined ("….corrupt[.N]")
// and temporary ("….tmp-N") files never end in the live extensions, so
// the suffix match alone excludes them — and graph names that merely
// contain such substrings (e.g. "run.tmp-1") are still recovered.
func (d *Dir) Scan() (snapshots, wals []string, err error) {
	entries, err := os.ReadDir(d.root)
	if err != nil {
		return nil, nil, fmt.Errorf("persist: scan data dir: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		switch {
		case strings.HasSuffix(name, SnapshotExt):
			snapshots = append(snapshots, strings.TrimSuffix(name, SnapshotExt))
		case strings.HasSuffix(name, WALExt):
			wals = append(wals, strings.TrimSuffix(name, WALExt))
		}
	}
	sort.Strings(snapshots)
	sort.Strings(wals)
	return snapshots, wals, nil
}
