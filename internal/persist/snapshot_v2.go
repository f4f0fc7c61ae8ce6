package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"runtime"
	"strconv"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/gstore"
)

// GSNAP v2 is the snapshot format WriteSnapshot writes: a fixed 136-byte
// header of section descriptors followed by the raw CSR arrays, every
// section starting on an 8-byte boundary so a memory mapping of the file
// (or an 8-byte-aligned buffer holding it) can be sliced directly into
// []int64/[]uint32/[]float32/[]float64 without a copy. Layout (all
// integers little-endian):
//
//	magic    [6]byte  "GSNAP\x00"
//	version  uint16   2
//	n        uint64   node count (must fit uint32: ids are 4 bytes)
//	m        uint64   undirected edge count
//	flags    uint64   bit0 weights present, bit1 weights are float32
//	desc[4]  4 × {off uint64, len uint64, crc uint32, rsvd uint32}
//	         sections rowPtr, adj, weights, degrees in file order
//	hcrc     uint32   CRC32 (IEEE) of header bytes [6, 128)
//	pad      uint32   zero
//
// Sections:
//
//	rowPtr   (n+1) × int64
//	adj      (2m)  × uint32
//	weights  (2m)  × float32 or float64, or absent (unit weights);
//	         float32 only when every weight narrows losslessly
//	degrees  n × float64, bit-identical to the writer's degree vector
//
// Each section's descriptor carries its byte offset, unpadded byte
// length and CRC32; the bytes between a section's end and the next
// 8-byte boundary are zero (verified on read, so any byte flip in the
// file fails the load). The degree vector is stored — not recomputed —
// so a loaded graph reproduces the writer's degree floats bit for bit,
// and the reader cross-checks it against the row-order accumulation.
const SnapshotVersionV2 = 2

const (
	v2HeaderSize = 136
	v2FlagW      = 1 << 0 // weights section present
	v2FlagWF32   = 1 << 1 // weights stored as float32
)

// v2 section indices, in file order.
const (
	v2SecRowPtr = 0
	v2SecAdj    = 1
	v2SecW      = 2
	v2SecDeg    = 3
)

// v2SectionNames name the sections in error messages.
var v2SectionNames = [4]string{"rowPtr", "adjacency", "weight", "degree"}

// ErrNotMappable reports that a snapshot cannot be served by the mmap
// backend (v1 format, oversized ids, or an unsupported platform) and
// the caller should fall back to a copying load.
var ErrNotMappable = errors.New("persist: snapshot not mappable")

type v2Section struct {
	off uint64 // absolute file offset, 8-byte aligned
	len uint64 // unpadded byte length
	crc uint32
}

type v2Header struct {
	n, m  uint64
	flags uint64
	sec   [4]v2Section
}

// pad8 rounds a byte length up to the next multiple of 8.
func pad8(n uint64) uint64 { return (n + 7) &^ 7 }

// sectionLens returns the four unpadded section byte lengths for the
// given dimensions and flags.
func (h *v2Header) sectionLens() [4]uint64 {
	var wlen uint64
	if h.flags&v2FlagW != 0 {
		if h.flags&v2FlagWF32 != 0 {
			wlen = 2 * h.m * 4
		} else {
			wlen = 2 * h.m * 8
		}
	}
	return [4]uint64{(h.n + 1) * 8, 2 * h.m * 4, wlen, h.n * 8}
}

// totalSize returns the expected file size: header plus padded sections.
func (h *v2Header) totalSize() uint64 {
	size := uint64(v2HeaderSize)
	for _, l := range h.sectionLens() {
		size += pad8(l)
	}
	return size
}

// parseV2Header validates a 136-byte v2 header (magic and version
// already checked by the caller) and the internal consistency of its
// descriptors: dimensions in range, known flags, each section at its
// computed offset with its computed length. After this, a reader only
// needs to verify content checksums and padding.
func parseV2Header(hdr []byte) (*v2Header, error) {
	if len(hdr) != v2HeaderSize {
		return nil, fmt.Errorf("v2 header is %d bytes, want %d", len(hdr), v2HeaderSize)
	}
	stored := binary.LittleEndian.Uint32(hdr[128:132])
	if want := crc32.ChecksumIEEE(hdr[6:128]); stored != want {
		return nil, fmt.Errorf("v2 header checksum mismatch (stored %08x, computed %08x)", stored, want)
	}
	if p := binary.LittleEndian.Uint32(hdr[132:136]); p != 0 {
		return nil, fmt.Errorf("v2 header padding is %08x, want zero", p)
	}
	h := &v2Header{
		n:     binary.LittleEndian.Uint64(hdr[8:16]),
		m:     binary.LittleEndian.Uint64(hdr[16:24]),
		flags: binary.LittleEndian.Uint64(hdr[24:32]),
	}
	if h.n >= maxSnapshotDim || h.m >= maxSnapshotDim {
		return nil, fmt.Errorf("v2 snapshot claims n=%d m=%d, beyond the %d limit", h.n, h.m, uint64(maxSnapshotDim))
	}
	if h.n > math.MaxUint32 {
		return nil, fmt.Errorf("v2 snapshot claims n=%d, beyond the uint32 id space", h.n)
	}
	if h.flags&^uint64(v2FlagW|v2FlagWF32) != 0 {
		return nil, fmt.Errorf("v2 snapshot has unknown flags %#x", h.flags)
	}
	if h.flags&v2FlagWF32 != 0 && h.flags&v2FlagW == 0 {
		return nil, fmt.Errorf("v2 snapshot flags %#x: float32 bit without weights bit", h.flags)
	}
	lens := h.sectionLens()
	off := uint64(v2HeaderSize)
	for i := range h.sec {
		d := hdr[32+24*i : 32+24*(i+1)]
		h.sec[i] = v2Section{
			off: binary.LittleEndian.Uint64(d[0:8]),
			len: binary.LittleEndian.Uint64(d[8:16]),
			crc: binary.LittleEndian.Uint32(d[16:20]),
		}
		if rsvd := binary.LittleEndian.Uint32(d[20:24]); rsvd != 0 {
			return nil, fmt.Errorf("v2 section %d reserved field is %08x, want zero", i, rsvd)
		}
		if h.sec[i].off != off {
			return nil, fmt.Errorf("v2 section %d at offset %d, want %d", i, h.sec[i].off, off)
		}
		if h.sec[i].len != lens[i] {
			return nil, fmt.Errorf("v2 section %d is %d bytes, want %d", i, h.sec[i].len, lens[i])
		}
		off += pad8(lens[i])
	}
	return h, nil
}

// encodeV2Header serializes h, computing the header checksum.
func encodeV2Header(h *v2Header) []byte {
	hdr := make([]byte, v2HeaderSize)
	copy(hdr[:6], snapMagic[:])
	binary.LittleEndian.PutUint16(hdr[6:8], SnapshotVersionV2)
	binary.LittleEndian.PutUint64(hdr[8:16], h.n)
	binary.LittleEndian.PutUint64(hdr[16:24], h.m)
	binary.LittleEndian.PutUint64(hdr[24:32], h.flags)
	for i, s := range h.sec {
		d := hdr[32+24*i : 32+24*(i+1)]
		binary.LittleEndian.PutUint64(d[0:8], s.off)
		binary.LittleEndian.PutUint64(d[8:16], s.len)
		binary.LittleEndian.PutUint32(d[16:20], s.crc)
	}
	binary.LittleEndian.PutUint32(hdr[128:132], crc32.ChecksumIEEE(hdr[6:128]))
	return hdr
}

// WriteSnapshot encodes g in GSNAP v2. The sections are g's own arrays:
// on a host whose layout matches the file's, each is written as it lies
// in memory (a mapped graph's straight from its mapping) after one CRC
// pass over the same bytes; elsewhere each is first encoded into a
// little-endian copy. The caller owns any file-level durability (fsync,
// rename).
func WriteSnapshot(w io.Writer, g *gstore.Compact) error {
	// The byte views below alias g's arrays, which for a mapped graph
	// its finalizer unmaps: g must outlive the last write.
	defer runtime.KeepAlive(g)
	h := &v2Header{n: uint64(g.N()), m: uint64(g.M())}
	var weights []byte
	if w32 := g.RawWeights32(); w32 != nil {
		h.flags, weights = v2FlagW|v2FlagWF32, sectionBytes(w32)
	} else if w64 := g.RawWeights64(); w64 != nil {
		h.flags, weights = v2FlagW, sectionBytes(w64)
	}
	secs := [4][]byte{sectionBytes(g.RawRowPtr()), sectionBytes(g.RawAdj()), weights, sectionBytes(g.Degrees())}
	// Every section is a whole number of 8-byte words (n+1 row
	// pointers, 2m 4-byte ids or weights, n degrees), so none is padded.
	off := uint64(v2HeaderSize)
	for i, b := range secs {
		h.sec[i] = v2Section{off: off, len: uint64(len(b)), crc: crc32.ChecksumIEEE(b)}
		off += uint64(len(b))
	}
	if _, err := w.Write(encodeV2Header(h)); err != nil {
		return fmt.Errorf("persist: write v2 header: %w", err)
	}
	for i, b := range secs {
		if len(b) == 0 {
			continue
		}
		if _, err := w.Write(b); err != nil {
			return fmt.Errorf("persist: write %s section: %w", v2SectionNames[i], err)
		}
	}
	return nil
}

// sectionBytes returns the little-endian bytes of one section's words:
// where the host layout matches the file's, a view of vals itself, to
// be read only; elsewhere an encoded copy. It is sectionWords' inverse.
func sectionBytes[T sectionWord](vals []T) []byte {
	if len(vals) == 0 {
		return nil
	}
	if !hostLayoutMappable() {
		return encodeWords(vals)
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&vals[0])), len(vals)*int(unsafe.Sizeof(vals[0])))
}

// encodeWords copies vals into fresh little-endian bytes, the inverse
// of decodeWords.
func encodeWords[T sectionWord](vals []T) []byte {
	out := make([]byte, len(vals)*int(unsafe.Sizeof(*new(T))))
	_, _ = binary.Encode(out, binary.LittleEndian, vals) // cannot fail: out holds len(vals) words
	return out
}

// verifyV2 checks a whole v2 snapshot held in data — its header, that
// data is exactly the size the header implies, every section CRC and
// the zero padding after each section — and returns the parsed header.
// The mapped and the copying loads both run it; the CSR invariants are
// left to gstore.NewCompactFromParts.
func verifyV2(data []byte) (*v2Header, error) {
	if len(data) < v2HeaderSize {
		return nil, fmt.Errorf("v2 snapshot header truncated")
	}
	h, err := parseV2Header(data[:v2HeaderSize])
	if err != nil {
		return nil, err
	}
	if want := h.totalSize(); uint64(len(data)) != want {
		return nil, fmt.Errorf("file is %d bytes, v2 header expects exactly %d", len(data), want)
	}
	for i, sec := range h.sec {
		if got := crc32.ChecksumIEEE(data[sec.off : sec.off+sec.len]); got != sec.crc {
			return nil, fmt.Errorf("%s section checksum mismatch (stored %08x, computed %08x)", v2SectionNames[i], sec.crc, got)
		}
		for _, b := range data[sec.off+sec.len : sec.off+pad8(sec.len)] {
			if b != 0 {
				return nil, fmt.Errorf("nonzero padding after %s section", v2SectionNames[i])
			}
		}
	}
	return h, nil
}

// readV2 reads a whole v2 snapshot of total bytes, whose header head has
// already been read, into one 8-byte-aligned buffer. When avail is the
// number of bytes r holds (a file's size), the buffer is sized once and
// a short source fails before anything is allocated; on a stream
// (avail < 0) it starts at sectionChunk and doubles only when full, so
// it never holds more than twice the bytes that have arrived.
func readV2(r io.Reader, head []byte, total uint64, avail int64) ([]byte, error) {
	if total > math.MaxInt {
		return nil, fmt.Errorf("v2 snapshot of %d bytes is too large for this host", total)
	}
	size := min(total, sectionChunk)
	if avail >= 0 {
		if uint64(avail) < total {
			return nil, fmt.Errorf("file is %d bytes, v2 header expects exactly %d", avail, total)
		}
		size = total
	}
	buf := alignedBytes(int(size))
	n := copy(buf, head)
	for uint64(n) < total {
		if n == len(buf) {
			grown := alignedBytes(int(min(total, 2*uint64(n))))
			copy(grown, buf)
			buf = grown
		}
		k, err := io.ReadFull(r, buf[n:])
		n += k
		if err != nil {
			return nil, fmt.Errorf("v2 snapshot truncated after %d of %d bytes: %w", n, total, err)
		}
	}
	return buf, nil
}

// alignedBytes returns n zero bytes starting on an 8-byte boundary, so
// a verified snapshot in them can be sliced like a mapping.
func alignedBytes(n int) []byte {
	words := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), n)
}

// weightFormNames names each gstore.WeightForm in load errors.
var weightFormNames = [...]string{graph.WeightsUnit: "unit", graph.WeightsF32: "float32", graph.WeightsF64: "float64"}

// compactV2 builds the compact graph of kind over the sections of a
// snapshot verifyV2 accepted. It refuses a weight section wider than
// the narrowest lossless form, the only one the writer stores, so a
// graph has one encoding and an accepted file is that encoding.
// NewCompactFromParts revalidates every CSR invariant, including the
// stored degree bits; closer is passed on.
func compactV2(data []byte, h *v2Header, kind gstore.Kind, closer func() error) (*gstore.Compact, error) {
	var w32 []float32
	var w64 []float64
	stored := graph.WeightsUnit
	if h.flags&v2FlagWF32 != 0 {
		w32, stored = sectionWords[float32](data, h.sec[v2SecW]), graph.WeightsF32
	} else if h.flags&v2FlagW != 0 {
		w64, stored = sectionWords[float64](data, h.sec[v2SecW]), graph.WeightsF64
	}
	if narrow := max(graph.DetectWeightForm(w32), graph.DetectWeightForm(w64)); narrow != stored {
		return nil, fmt.Errorf("weights stored as %s, wider than their narrowest lossless form %s",
			weightFormNames[stored], weightFormNames[narrow])
	}
	return gstore.NewCompactFromParts(kind,
		sectionWords[int64](data, h.sec[v2SecRowPtr]),
		sectionWords[uint32](data, h.sec[v2SecAdj]),
		w32, w64,
		sectionWords[float64](data, h.sec[v2SecDeg]),
		closer)
}

type sectionWord interface {
	int64 | uint32 | float32 | float64
}

// sectionWords returns one section of data as a typed slice. Where the
// host layout matches the file's it aliases data without copying:
// section offsets are 8-byte aligned by construction (checked by
// parseV2Header) and so is data (a page-aligned mapping or
// alignedBytes), so the cast pointer is properly aligned for T.
// Elsewhere it decodes a copy.
func sectionWords[T sectionWord](data []byte, sec v2Section) []T {
	b := data[sec.off : sec.off+sec.len]
	if len(b) == 0 {
		return nil
	}
	if !hostLayoutMappable() {
		return decodeWords[T](b)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), len(b)/int(unsafe.Sizeof(*new(T))))
}

// decodeWords copies the little-endian words of b into a fresh []T.
func decodeWords[T sectionWord](b []byte) []T {
	out := make([]T, len(b)/int(unsafe.Sizeof(*new(T))))
	_, _ = binary.Decode(b, binary.LittleEndian, out) // cannot fail: b holds len(out) words
	return out
}

// hostLayoutMappable reports whether the host's int width and byte
// order let the little-endian on-disk sections be aliased in place.
func hostLayoutMappable() bool {
	if strconv.IntSize != 64 {
		return false
	}
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}
