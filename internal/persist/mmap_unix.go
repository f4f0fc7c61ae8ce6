//go:build unix

package persist

import (
	"fmt"
	"os"
	"syscall"

	"repro/internal/gstore"
)

// OpenMapped serves a GSNAP v2 snapshot straight off a read-only
// memory mapping: the rowPtr/adjacency/weight/degree slices of the
// returned graph alias the mapped file bytes, so opening copies no
// adjacency data, a restart is near-instant, and concurrent daemons
// mapping the same file share physical pages. Closing the returned
// graph unmaps the file.
//
// The open is fully verified — header checksum, exact file size, every
// section CRC, zero padding, and the complete CSR invariants — which
// reads (faults in) the whole mapping once but allocates nothing
// proportional to the graph.
//
// v1 snapshots, oversized graphs, and platforms whose layout cannot
// alias the on-disk sections (big-endian, 32-bit int) return
// ErrNotMappable so callers fall back to a copying load. Caveat: the
// verification only covers the file as mapped at open time. If the
// file is truncated afterwards while the mapping is live, touching the
// lost pages raises SIGBUS — keep snapshots immutable under the store
// directory (graphd's atomic write + rename discipline guarantees
// this; see docs/storage.md).
func OpenMapped(path string) (*gstore.Compact, error) {
	if !hostLayoutMappable() {
		return nil, fmt.Errorf("%w: host is not little-endian/64-bit", ErrNotMappable)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	if size != int64(int(size)) {
		return nil, fmt.Errorf("%w: %s is too large to map", ErrNotMappable, path)
	}
	var data []byte // an empty file cannot be mapped, and fails verification as it is
	if size > 0 {
		if data, err = syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED); err != nil {
			return nil, fmt.Errorf("persist: mmap %s: %w", path, err)
		}
	}
	c, err := openMappedData(data, path)
	if err != nil && data != nil {
		_ = syscall.Munmap(data)
	}
	return c, err
}

// openMappedData builds the mapped graph over an established mapping;
// the caller unmaps on error.
func openMappedData(data []byte, path string) (*gstore.Compact, error) {
	v, err := snapshotVersion(data)
	if err != nil {
		return nil, fmt.Errorf("persist: %s: %w", path, err)
	}
	if v == SnapshotVersion {
		return nil, fmt.Errorf("%w: %s is a v1 snapshot", ErrNotMappable, path)
	}
	h, err := verifyV2(data)
	if err != nil {
		return nil, fmt.Errorf("persist: %s: %w", path, err)
	}
	// The closer un-notes exactly what the successful open notes below;
	// a failed open munmaps directly in OpenMapped without ever noting,
	// so the mapped-bytes gauge never double-counts or goes negative.
	size := int64(len(data))
	closer := func() error {
		err := syscall.Munmap(data)
		gstore.Telemetry().NoteUnmapped(size)
		return err
	}
	c, err := compactV2(data, h, gstore.KindMmap, closer)
	if err != nil {
		return nil, fmt.Errorf("persist: %s: %w", path, err)
	}
	gstore.Telemetry().NoteMapped(size)
	return c, nil
}
