// Package persist is graphd's durability layer: a versioned, checksummed
// binary snapshot format for sealed CSR graphs ("GSNAP"), a streaming
// write-ahead log ("GWAL") for graphs that are still accumulating edges,
// and the data directory (Dir) that owns both and recovers them at boot.
// Together they let a daemon restart recover every sealed graph and
// replay every in-flight stream without re-parsing text edge lists.
//
// WriteSnapshot writes v2 (see snapshot_v2.go for the layout) from a
// compact graph, whose arrays are the sections: compact 8-byte-aligned
// sections that a memory mapping can serve in place, plus the degree
// vector, so mapped loads copy nothing. v1 is the original streaming
// layout below; it is read transparently but never written:
//
//	magic    [6]byte  "GSNAP\x00"
//	version  uint16   1
//	n        uint64   node count
//	m        uint64   undirected edge count
//	hcrc     uint32   CRC32 (IEEE) of the version/n/m bytes
//	rowPtr   (n+1) × int64, then uint32 CRC32 of the section bytes
//	adj      (2m)  × int64, then uint32 CRC32
//	w        (2m)  × float64 (IEEE 754 bits), then uint32 CRC32
//
// Every section carries its own checksum so corruption is localized in
// error messages. A graph that survives ReadCompact is bit-identical
// (adjacency, weights, degrees, volume) to the one that was written,
// whichever version carried it.
package persist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"syscall"

	"repro/internal/graph"
	"repro/internal/gstore"
)

// SnapshotVersion is the legacy GSNAP v1 format version, which is read
// but never written.
const SnapshotVersion = 1

// SnapshotExt is the conventional file extension for snapshot files.
const SnapshotExt = ".gsnap"

var snapMagic = [6]byte{'G', 'S', 'N', 'A', 'P', 0}

// maxSnapshotDim bounds the node/edge counts a header may claim, keeping
// n+1 and 2m safely inside int range on 64-bit platforms. Decoding
// allocates in proportion to bytes actually read, so a lying header
// costs an error, not memory.
const maxSnapshotDim = 1 << 48

// sectionChunk is the decode buffer size: large enough to amortize
// syscalls, small enough that a truncated file never provokes a large
// allocation.
const sectionChunk = 1 << 16

// ReadCompact decodes a GSNAP stream (either version) into the compact
// in-heap representation, verifying the magic, version, header
// checksum, every section checksum, and finally the full CSR
// invariants. It never panics on malformed input and allocates in
// proportion to the bytes actually present.
func ReadCompact(r io.Reader) (*gstore.Compact, error) {
	return readSnapshot(r, -1)
}

// readSnapshot decodes a snapshot of either version into a compact
// graph: a v1 one section by section (see readSnapshotV1), a v2 one
// over one buffer holding the whole file (see readV2). avail is how
// many bytes r holds when that is known (a file's size), and negative
// for a stream.
func readSnapshot(r io.Reader, avail int64) (*gstore.Compact, error) {
	var head [v2HeaderSize]byte
	if _, err := io.ReadFull(r, head[:8]); err != nil {
		return nil, fmt.Errorf("persist: snapshot header truncated: %w", err)
	}
	v, err := snapshotVersion(head[:8])
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	if v == SnapshotVersion {
		return readSnapshotV1(bufio.NewReaderSize(r, sectionChunk), head[:8])
	}
	if _, err := io.ReadFull(r, head[8:]); err != nil {
		return nil, fmt.Errorf("persist: v2 snapshot header truncated: %w", err)
	}
	h, err := parseV2Header(head[:])
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	data, err := readV2(r, head[:], h.totalSize(), avail)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	if h, err = verifyV2(data); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	c, err := compactV2(data, h, gstore.KindCompact, nil)
	if err != nil {
		return nil, fmt.Errorf("persist: snapshot failed CSR validation: %w", err)
	}
	return c, nil
}

// snapshotVersion checks the magic in a snapshot's first 8 bytes and
// returns its format version.
func snapshotVersion(head []byte) (uint16, error) {
	if len(head) < 8 {
		return 0, fmt.Errorf("snapshot header truncated")
	}
	if [6]byte(head[:6]) != snapMagic {
		return 0, fmt.Errorf("bad snapshot magic %q", head[:6])
	}
	v := binary.LittleEndian.Uint16(head[6:8])
	if v != SnapshotVersion && v != SnapshotVersionV2 {
		return 0, fmt.Errorf("unsupported snapshot version %d (supported: %d, %d)", v, SnapshotVersion, SnapshotVersionV2)
	}
	return v, nil
}

// readSnapshotV1 decodes the rest of a v1 snapshot from br, its magic
// and version bytes, head, having already been read, straight into the
// compact form, which NewCompactFromParts validates: row pointers as
// int64, each neighbour id refused outside [0,n) before it narrows to
// uint32, the weights as NarrowWeights stores them, and the degrees
// summed from the rows.
func readSnapshotV1(br io.Reader, head []byte) (*gstore.Compact, error) {
	var hdr [28]byte
	copy(hdr[:], head)
	if _, err := io.ReadFull(br, hdr[len(head):]); err != nil {
		return nil, fmt.Errorf("persist: snapshot header truncated: %w", err)
	}
	if stored, want := binary.LittleEndian.Uint32(hdr[24:]), crc32.ChecksumIEEE(hdr[6:24]); stored != want {
		return nil, fmt.Errorf("persist: snapshot header checksum mismatch (got %08x, want %08x)", stored, want)
	}
	n := binary.LittleEndian.Uint64(hdr[8:16])
	m := binary.LittleEndian.Uint64(hdr[16:24])
	if n > math.MaxUint32 || m >= maxSnapshotDim {
		return nil, fmt.Errorf("persist: snapshot claims n=%d m=%d, beyond the uint32 id space or the %d edge limit", n, m, uint64(maxSnapshotDim))
	}
	rowPtr, err := readWords(br, int(n)+1, func(u uint64) (int64, error) { return int64(u), nil })
	if err != nil {
		return nil, fmt.Errorf("persist: rowPtr section: %w", err)
	}
	if got := rowPtr[n]; got != 2*int64(m) {
		return nil, fmt.Errorf("persist: rowPtr[n]=%d inconsistent with m=%d", got, m)
	}
	adj, err := readWords(br, 2*int(m), func(u uint64) (uint32, error) {
		if u >= n {
			return 0, fmt.Errorf("neighbour id %d outside [0,%d)", u, n)
		}
		return uint32(u), nil
	})
	if err != nil {
		return nil, fmt.Errorf("persist: adjacency section: %w", err)
	}
	wts, err := readWords(br, 2*int(m), func(u uint64) (float64, error) { return math.Float64frombits(u), nil })
	if err != nil {
		return nil, fmt.Errorf("persist: weight section: %w", err)
	}
	w32, w64 := graph.NarrowWeights(wts)
	c, err := gstore.NewCompactFromParts(gstore.KindCompact, rowPtr, adj, w32, w64, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("persist: snapshot failed CSR validation: %w", err)
	}
	return c, nil
}

// WriteSnapshotFile writes g's snapshot to path atomically: the bytes
// go to a temporary file in the same directory, are fsynced, and are
// renamed into place, so a crash mid-write can never leave a
// half-written snapshot under the final name.
func WriteSnapshotFile(path string, g *gstore.Compact) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("persist: create temp snapshot: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after successful rename
	if err := WriteSnapshot(tmp, g); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("persist: sync snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("persist: close snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("persist: commit snapshot: %w", err)
	}
	return syncDir(dir)
}

// ReadCompactFile reads a GSNAP file into the compact representation.
// It sizes the file first, so a v2 load costs one allocation of exactly
// the file's size.
func ReadCompactFile(path string) (*gstore.Compact, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	avail := int64(-1)
	if fi, err := f.Stat(); err == nil {
		avail = fi.Size()
	}
	g, err := readSnapshot(f, avail)
	if cerr := f.Close(); err == nil && cerr != nil {
		return nil, fmt.Errorf("persist: close %s: %w", path, cerr)
	}
	if err != nil {
		return nil, fmt.Errorf("persist: %s: %w", path, err)
	}
	return g, nil
}

// ReadGraphFile loads a graph from path into the compact in-heap
// representation, dispatching on the extension: ".gsnap" files decode
// as binary snapshots, anything else parses as a text edge list (".gz"
// transparently gunzipped, "" meaning stdin).
// graphd -load reads its graphs with it, so a generation gengraph wrote
// as a snapshot is parsed once and reloaded in binary form thereafter.
func ReadGraphFile(path string) (*gstore.Compact, error) {
	if filepath.Ext(path) == SnapshotExt {
		return ReadCompactFile(path)
	}
	return graph.ReadEdgeListFile(path)
}

// syncDir fsyncs a directory so a just-renamed file's directory entry is
// durable. A platform that refuses to fsync directories at all is no
// durability failure (dirSyncRefused); any other error is returned.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("persist: sync directory: %w", err)
	}
	if err := d.Sync(); err != nil && !dirSyncRefused(err) {
		d.Close()
		return fmt.Errorf("persist: sync directory: %w", err)
	}
	return d.Close()
}

// dirSyncRefused reports whether a directory fsync failed because the
// platform does not fsync directories: EINVAL, ENOTSUP or EOPNOTSUPP.
func dirSyncRefused(err error) bool {
	return errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP) || errors.Is(err, syscall.EOPNOTSUPP)
}

// readWords reads a v1 section — count little-endian 8-byte words, then
// the CRC32 of their bytes — decoding each word with conv, which
// refuses a word by returning an error. Allocation stays proportional to
// bytes actually read: a header that lies about count fails on the
// first short read.
func readWords[T int64 | uint32 | float64](r io.Reader, count int, conv func(uint64) (T, error)) ([]T, error) {
	if count < 0 {
		return nil, fmt.Errorf("negative element count %d", count)
	}
	out := make([]T, 0, min(count, sectionChunk/8))
	crc := crc32.NewIEEE()
	buf := make([]byte, sectionChunk)
	for len(out) < count {
		chunk := buf[:8*min(count-len(out), sectionChunk/8)]
		if _, err := io.ReadFull(r, chunk); err != nil {
			return nil, fmt.Errorf("truncated after %d of %d elements: %w", len(out), count, err)
		}
		crc.Write(chunk)
		for i := 0; i < len(chunk); i += 8 {
			v, err := conv(binary.LittleEndian.Uint64(chunk[i:]))
			if err != nil {
				return nil, fmt.Errorf("element %d: %w", len(out), err)
			}
			out = append(out, v)
		}
	}
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return nil, fmt.Errorf("checksum truncated: %w", err)
	}
	if stored, got := binary.LittleEndian.Uint32(buf), crc.Sum32(); stored != got {
		return nil, fmt.Errorf("checksum mismatch (stored %08x, computed %08x)", stored, got)
	}
	return out, nil
}
