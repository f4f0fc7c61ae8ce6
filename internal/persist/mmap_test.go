//go:build unix

package persist

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/gstore"
)

// writeV2Temp writes g's v2 snapshot into a fresh temp file and returns
// its path and raw bytes.
func writeV2Temp(t testing.TB, g *graph.Graph) (string, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g"+SnapshotExt)
	if err := WriteSnapshotFile(path, g); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, data
}

// TestOpenMappedRejectsCorruption feeds OpenMapped every corruption a
// snapshot file can plausibly suffer — truncation at each structural
// boundary, bit flips in header and data, wrong versions — and requires
// a clean descriptive error for each. Nothing here may crash: all
// validation happens before any slice is handed out.
func TestOpenMappedRejectsCorruption(t *testing.T) {
	g := weightedTestGraph(t)
	_, valid := writeV2Temp(t, g)
	v1 := v1Fixture(t)

	cases := []struct {
		name    string
		data    []byte
		wantErr string
	}{
		{"empty", nil, "truncated"},
		{"magic-only", valid[:6], "truncated"},
		{"bad-magic", []byte("NOTSNAPAAAAAAAAA"), "bad snapshot magic"},
		{"header-cut-short", valid[:v2HeaderSize-1], "truncated"},
		{"data-cut-short", valid[:len(valid)-8], "expects exactly"},
		{"trailing-garbage", append(append([]byte(nil), valid...), 0), "expects exactly"},
		{"header-bit-flip", flipByte(valid, 9), "header checksum mismatch"},
		{"rowptr-bit-flip", flipByte(valid, v2HeaderSize+1), "rowPtr section checksum"},
		{"future-version", flipByte(valid, 6), "unsupported snapshot version"},
		{"v1-snapshot", v1, "not mappable"},
	}
	dir := t.TempDir()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, tc.name+SnapshotExt)
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			c, err := OpenMapped(path)
			if err == nil {
				c.Close()
				t.Fatalf("corrupt snapshot accepted")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}

	t.Run("v1-is-ErrNotMappable", func(t *testing.T) {
		path := filepath.Join(dir, "v1"+SnapshotExt)
		if err := os.WriteFile(path, v1, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenMapped(path); !errors.Is(err, ErrNotMappable) {
			t.Fatalf("v1 snapshot: err = %v, want ErrNotMappable", err)
		}
	})
}

func flipByte(data []byte, i int) []byte {
	out := append([]byte(nil), data...)
	out[i] ^= 0x40
	return out
}

// TestOpenMappedZeroCopy is the headline acceptance check: mapping a
// ~129k-edge Kronecker snapshot must not copy the adjacency. The
// sections total ~1.3 MB; we require the whole open — including full
// CRC and CSR verification — to allocate less than a fifth of the
// smallest section, so any copying path fails loudly.
func TestOpenMappedZeroCopy(t *testing.T) {
	g, err := gen.Kronecker(gen.KroneckerConfig{Levels: 14, Edges: 150000}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if g.M() < 100000 {
		t.Fatalf("generator produced only %d edges", g.M())
	}
	path, _ := writeV2Temp(t, g)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c, err := OpenMapped(path)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	allocated := after.TotalAlloc - before.TotalAlloc
	adjBytes := uint64(2 * g.M() * 4)
	if allocated > adjBytes/5 {
		t.Errorf("OpenMapped allocated %d bytes for a graph with %d-byte adjacency; the load is supposed to copy nothing", allocated, adjBytes)
	}

	if c.N() != g.N() || c.M() != g.M() {
		t.Fatalf("mapped N,M = %d,%d, want %d,%d", c.N(), c.M(), g.N(), g.M())
	}
	if math.Float64bits(c.Volume()) != math.Float64bits(g.Volume()) {
		t.Fatalf("mapped Volume %v, want %v", c.Volume(), g.Volume())
	}
	if c.Backend() != gstore.KindMmap {
		t.Fatalf("Backend = %q", c.Backend())
	}
}

// TestCompactLoadAllocatesTheFileOnce is the copying load's counterpart
// of TestOpenMappedZeroCopy: loading a snapshot file into the compact
// backend reads it into one buffer of the file's size and slices the
// sections out of that buffer, so the whole load — CRC and CSR
// verification included — allocates at most 1.1× the file.
func TestCompactLoadAllocatesTheFileOnce(t *testing.T) {
	g, err := gen.Kronecker(gen.KroneckerConfig{Levels: 14, Edges: 150000}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	path, data := writeV2Temp(t, g)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c, err := ReadCompactFile(path)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if allocated := after.TotalAlloc - before.TotalAlloc; float64(allocated) > 1.1*float64(len(data)) {
		t.Errorf("loading a %d-byte snapshot allocated %d bytes, want at most 1.1x the file", len(data), allocated)
	}
	assertSameCompact(t, g, c, gstore.KindCompact)
}

// FuzzOpenMapped hammers the mapped-open path with arbitrary file
// contents. The invariant: OpenMapped either returns a descriptive
// error or a fully valid graph — never a panic, SIGSEGV or SIGBUS —
// because every byte it will later serve is verified before any slice
// escapes. Accepted inputs must also round-trip: re-encoding the
// mapped graph yields a snapshot that reads back as the same graph.
func FuzzOpenMapped(f *testing.F) {
	seed := func(g *graph.Graph) []byte {
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, g); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	unit := seed(gen.RingOfCliques(3, 4))
	wb := graph.NewBuilder(6)
	wb.AddWeightedEdge(0, 5, 2.25)
	wb.AddWeightedEdge(1, 5, 0.1)
	weighted, err := wb.Build()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(unit)
	f.Add(seed(weighted))
	f.Add(unit[:8])
	f.Add(unit[:v2HeaderSize])
	f.Add(unit[:len(unit)-4])
	f.Add(flipByte(unit, v2HeaderSize+2))
	f.Add(flipByte(unit, 40))
	f.Add([]byte("GSNAP\x00"))
	f.Add([]byte{})
	f.Add(v1Fixture(f))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip("oversized input")
		}
		path := filepath.Join(t.TempDir(), "fuzz"+SnapshotExt)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := OpenMapped(path)
		if err != nil {
			return
		}
		defer c.Close()
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, c); err != nil {
			t.Fatalf("accepted graph failed to re-encode: %v", err)
		}
		rt, err := ReadCompact(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded snapshot failed to read back: %v", err)
		}
		assertSameCSR(t, c, rt)
	})
}
