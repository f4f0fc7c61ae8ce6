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
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/graph"
)

// WAL layout (all integers little-endian):
//
//	magic    [6]byte  "GWAL\x00\x00"
//	version  uint16   format version (currently 1)
//	nodes    uint64   node count of the streaming graph
//	hcrc     uint32   CRC32 (IEEE) of the version/nodes bytes
//	records  zero or more:
//	  count  uint32   edges in this batch
//	  crc    uint32   CRC32 of the payload bytes
//	  payload count × (u int64, v int64, w float64) — 24 bytes per edge
//
// Each AppendBatch call writes exactly one record and fsyncs before
// returning, so an acknowledged batch is durable. Recovery reads records
// until the file ends; any anomaly — a tear, a checksum mismatch, an
// impossible count — fails OpenWAL with an error, and Recover
// quarantines the file rather than guessing at a safe prefix (see
// docs/persistence.md for the rationale and the manual salvage
// procedure).

// WALVersion is the GWAL format version this package writes.
const WALVersion = 1

// WALExt is the conventional file extension for write-ahead logs.
const WALExt = ".wal"

var walMagic = [6]byte{'G', 'W', 'A', 'L', 0, 0}

// maxWALBatch bounds the edge count a single record may claim; the
// service's request-size caps keep real batches far below it.
const maxWALBatch = 1 << 26

const walEdgeBytes = 24

// Edge is one WAL-logged undirected edge. W is stored as the weight the
// store actually applied (defaults already resolved), so replay is exact.
type Edge struct {
	U, V int
	W    float64
}

// Check reports why e cannot join a graph on nodes vertices: an
// endpoint outside [0,nodes) or a weight that is not positive and
// finite. The store checks every appended edge with it before logging,
// and recovery checks every replayed one, so a logged edge always
// replays.
func (e Edge) Check(nodes int) error {
	if e.U < 0 || e.U >= nodes || e.V < 0 || e.V >= nodes {
		return fmt.Errorf("(%d,%d) out of range [0,%d)", e.U, e.V, nodes)
	}
	if !(e.W > 0) || math.IsInf(e.W, 1) {
		return fmt.Errorf("(%d,%d) has invalid weight %v", e.U, e.V, e.W)
	}
	return nil
}

// WAL is an open write-ahead log for one streaming graph. Not safe for
// concurrent use; the store serializes access per graph.
type WAL struct {
	f       *os.File
	path    string
	nodes   int
	obs     Observer       // nil: no durability telemetry
	appends *atomic.Uint64 // counts durable appends; set by the Dir that opened the log
	rec     []byte         // the last record's buffer, reused by the next append
}

// maxKeptRecord bounds the record buffer a WAL keeps between appends, so
// one huge batch does not pin its size for the rest of the stream.
const maxKeptRecord = 1 << 20

// CreateWAL creates a fresh log at path for a streaming graph on nodes
// vertices, failing if the file already exists. The header is fsynced
// before returning.
func CreateWAL(path string, nodes int) (*WAL, error) {
	if nodes <= 0 || nodes > graph.MaxEdgeListNodes {
		return nil, fmt.Errorf("persist: WAL needs 0 < nodes <= %d, got %d", graph.MaxEdgeListNodes, nodes)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: create WAL: %w", err)
	}
	if _, err := f.Write(walHeader(nodes)); err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("persist: write WAL header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("persist: sync WAL header: %w", err)
	}
	return &WAL{f: f, path: path, nodes: nodes}, nil
}

// walHeader encodes the log header for a graph on nodes vertices.
func walHeader(nodes int) []byte {
	hdr := make([]byte, 20)
	copy(hdr[:6], walMagic[:])
	binary.LittleEndian.PutUint16(hdr[6:8], WALVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(nodes))
	binary.LittleEndian.PutUint32(hdr[16:20], crc32.ChecksumIEEE(hdr[6:16]))
	return hdr
}

// appendWALRecord appends the record that logs edges to b.
func appendWALRecord(b []byte, edges []Edge) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(edges)))
	b = append(b, 0, 0, 0, 0) // payload CRC, filled in below
	start := len(b)
	for _, e := range edges {
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(e.U)))
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(e.V)))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.W))
	}
	binary.LittleEndian.PutUint32(b[start-4:], crc32.ChecksumIEEE(b[start:]))
	return b
}

// OpenWAL opens an existing log, replays every record, and returns the
// log ready for further appends together with the node count and the
// replayed batches. Any structural anomaly — bad magic or version, a
// header or record checksum mismatch, or a torn (incomplete) final
// record — returns an error and leaves the file untouched for the
// caller to quarantine.
func OpenWAL(path string) (w *WAL, nodes int, batches [][]Edge, err error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0)
	if err != nil {
		return nil, 0, nil, fmt.Errorf("persist: open WAL: %w", err)
	}
	// O_APPEND makes every write land at the end of the file regardless
	// of the read offset the replay below leaves behind.
	br := bufio.NewReaderSize(f, sectionChunk)
	nodes, batches, err = replayWAL(br)
	if err != nil {
		f.Close()
		return nil, 0, nil, fmt.Errorf("persist: %s: %w", path, err)
	}
	return &WAL{f: f, path: path, nodes: nodes}, nodes, batches, nil
}

// replayWAL decodes the header and all records from r.
func replayWAL(br io.Reader) (nodes int, batches [][]Edge, err error) {
	var hdr [20]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, nil, fmt.Errorf("WAL header truncated: %w", err)
	}
	if [6]byte(hdr[:6]) != walMagic {
		return 0, nil, fmt.Errorf("bad WAL magic %q", hdr[:6])
	}
	if v := binary.LittleEndian.Uint16(hdr[6:8]); v != WALVersion {
		return 0, nil, fmt.Errorf("unsupported WAL version %d (supported: %d)", v, WALVersion)
	}
	if got, want := binary.LittleEndian.Uint32(hdr[16:20]), crc32.ChecksumIEEE(hdr[6:16]); got != want {
		return 0, nil, fmt.Errorf("WAL header checksum mismatch (stored %08x, computed %08x)", got, want)
	}
	n := binary.LittleEndian.Uint64(hdr[8:16])
	if n == 0 || n > graph.MaxEdgeListNodes {
		return 0, nil, fmt.Errorf("WAL claims impossible node count %d", n)
	}
	nodes = int(n)
	for rec := 0; ; rec++ {
		var rh [8]byte
		if _, err := io.ReadFull(br, rh[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return nodes, batches, nil // clean end at a record boundary
			}
			return 0, nil, fmt.Errorf("record %d: torn header: %w", rec, err)
		}
		count := binary.LittleEndian.Uint32(rh[0:4])
		stored := binary.LittleEndian.Uint32(rh[4:8])
		if count == 0 || count > maxWALBatch {
			return 0, nil, fmt.Errorf("record %d: impossible edge count %d", rec, count)
		}
		crc := crc32.NewIEEE()
		edges := make([]Edge, 0, min(int(count), sectionChunk/walEdgeBytes))
		remaining := int(count)
		chunkBuf := make([]byte, min(int(count)*walEdgeBytes, sectionChunk))
		for remaining > 0 {
			k := min(remaining, len(chunkBuf)/walEdgeBytes)
			chunk := chunkBuf[:k*walEdgeBytes]
			if _, err := io.ReadFull(br, chunk); err != nil {
				return 0, nil, fmt.Errorf("record %d: torn payload: %w", rec, err)
			}
			crc.Write(chunk)
			for i := 0; i+walEdgeBytes <= len(chunk); i += walEdgeBytes {
				edges = append(edges, Edge{
					U: int(int64(binary.LittleEndian.Uint64(chunk[i:]))),
					V: int(int64(binary.LittleEndian.Uint64(chunk[i+8:]))),
					W: math.Float64frombits(binary.LittleEndian.Uint64(chunk[i+16:])),
				})
			}
			remaining -= k
		}
		if got := crc.Sum32(); got != stored {
			return 0, nil, fmt.Errorf("record %d: checksum mismatch (stored %08x, computed %08x)", rec, stored, got)
		}
		batches = append(batches, edges)
	}
}

// AppendBatch writes one durable record: the batch is encoded,
// checksummed, written, and fsynced before the call returns. An error
// means the batch must be considered not persisted.
func (w *WAL) AppendBatch(edges []Edge) error {
	if w.f == nil {
		return fmt.Errorf("persist: WAL %s is closed", w.path)
	}
	if len(edges) == 0 {
		return nil
	}
	if len(edges) > maxWALBatch {
		return fmt.Errorf("persist: WAL batch of %d edges exceeds limit %d", len(edges), maxWALBatch)
	}
	rec := appendWALRecord(slices.Grow(w.rec[:0], 8+len(edges)*walEdgeBytes), edges)
	if cap(rec) <= maxKeptRecord {
		w.rec = rec
	}
	var start time.Time
	if w.obs != nil {
		start = time.Now()
	}
	if _, err := w.f.Write(rec); err != nil {
		return fmt.Errorf("persist: append WAL record: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("persist: sync WAL record: %w", err)
	}
	if w.obs != nil {
		w.obs.ObservePersist(OpWALFsync, time.Since(start), int64(len(rec)))
	}
	if w.appends != nil {
		w.appends.Add(1)
	}
	return nil
}

// Nodes returns the node count recorded in the WAL header.
func (w *WAL) Nodes() int { return w.nodes }

// Close closes the log file. It syncs nothing: CreateWAL fsynced the
// header and AppendBatch fsynced every record it acknowledged, so the
// log is already durable. Further appends fail. Close is idempotent,
// and a nil log has nothing to close.
func (w *WAL) Close() error {
	if w == nil || w.f == nil {
		return nil
	}
	f := w.f
	w.f = nil
	if err := f.Close(); err != nil {
		return fmt.Errorf("persist: close WAL: %w", err)
	}
	return nil
}
