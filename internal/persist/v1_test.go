package persist

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/gstore"
)

// v1Sections splits the v1 fixture into its header and its three
// sections' words: rowPtr (n+1), adj (2m) and the weight bits (2m).
func v1Sections(t *testing.T) (hdr []byte, sec [3][]uint64) {
	t.Helper()
	data := v1Fixture(t)
	n := binary.LittleEndian.Uint64(data[8:16])
	m := binary.LittleEndian.Uint64(data[16:24])
	off := 28
	for i, count := range []uint64{n + 1, 2 * m, 2 * m} {
		sec[i] = make([]uint64, count)
		for k := range sec[i] {
			sec[i][k] = binary.LittleEndian.Uint64(data[off:])
			off += 8
		}
		off += 4
	}
	if off != len(data) {
		t.Fatalf("fixture has %d bytes, its sections end at %d", len(data), off)
	}
	return data[:28], sec
}

// v1Encode lays the header and sections back out, every section
// followed by the CRC32 of its bytes, so a patched word reaches the
// structural checks instead of failing a checksum.
func v1Encode(hdr []byte, sec [3][]uint64) []byte {
	out := append([]byte(nil), hdr...)
	for _, words := range sec {
		start := len(out)
		for _, w := range words {
			out = binary.LittleEndian.AppendUint64(out, w)
		}
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out[start:]))
	}
	return out
}

// TestV1CorruptionRefused patches the v1 fixture with a checksum-valid
// structural fault per case and requires ReadCompact to refuse it and
// Recover to quarantine it, on either backend. The fixture's row 0 is
// {1, 9} and row 1 is {0, 2, 10}, so entries 0 and 2 are the two halves
// of edge {0, 1}.
func TestV1CorruptionRefused(t *testing.T) {
	const rowPtr, adj, wts = 0, 1, 2
	f64 := math.Float64bits
	cases := []struct {
		name  string
		patch func(sec *[3][]uint64)
	}{
		{"neighbour equal to n", func(s *[3][]uint64) { s[adj][0] = uint64(len(s[rowPtr]) - 1) }},
		{"neighbour 2^32+v", func(s *[3][]uint64) { s[adj][0] += 1 << 32 }},
		{"neighbour -1", func(s *[3][]uint64) { s[adj][0] = math.MaxUint64 }},
		{"row swapped", func(s *[3][]uint64) {
			s[adj][0], s[adj][1] = s[adj][1], s[adj][0]
			s[wts][0], s[wts][1] = s[wts][1], s[wts][0]
		}},
		{"mirror weight changed", func(s *[3][]uint64) { s[wts][2] = f64(0.75) }},
		{"zero weight", func(s *[3][]uint64) { s[wts][0], s[wts][2] = 0, 0 }},
		{"NaN weight", func(s *[3][]uint64) { s[wts][0], s[wts][2] = f64(math.NaN()), f64(math.NaN()) }},
		{"rowPtr[n] not 2m", func(s *[3][]uint64) { s[rowPtr][len(s[rowPtr])-1] -= 2 }},
	}
	hdr, sec := v1Sections(t)
	if _, err := ReadCompact(bytes.NewReader(v1Encode(hdr, sec))); err != nil {
		t.Fatalf("the re-encoded fixture is refused: %v", err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hdr, sec := v1Sections(t)
			tc.patch(&sec)
			data := v1Encode(hdr, sec)
			if c, err := ReadCompact(bytes.NewReader(data)); err == nil {
				t.Fatalf("ReadCompact accepted it: n=%d m=%d", c.N(), c.M())
			}
			assertQuarantined(t, data)
		})
	}

	t.Run("header claims n=2^40", func(t *testing.T) {
		data := append([]byte(nil), v1Fixture(t)[:64]...)
		binary.LittleEndian.PutUint64(data[8:], 1<<40)
		binary.LittleEndian.PutUint32(data[24:], crc32.ChecksumIEEE(data[6:24]))
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := ReadCompact(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatal("ReadCompact accepted it")
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 4*sectionChunk {
			t.Errorf("refusing a %d-byte snapshot allocated %d bytes", len(data), got)
		}
		assertQuarantined(t, data)
	})
}

// assertQuarantined writes data as a data directory's only snapshot
// and requires Recover to set it aside on either backend.
func assertQuarantined(t *testing.T, data []byte) {
	t.Helper()
	for _, kind := range []gstore.Kind{gstore.KindCompact, gstore.KindMmap} {
		root := t.TempDir()
		if err := os.WriteFile(filepath.Join(root, "bad"+SnapshotExt), data, 0o644); err != nil {
			t.Fatal(err)
		}
		d, rec, err := Recover(root, kind, nil, t.Logf)
		if err != nil {
			t.Fatalf("%s: Recover = %v", kind, err)
		}
		if len(rec) != 0 || d.Counters().Quarantined.Load() != 1 {
			t.Fatalf("%s: recovered %d graphs, quarantined %d; want 0 and 1", kind, len(rec), d.Counters().Quarantined.Load())
		}
	}
}
