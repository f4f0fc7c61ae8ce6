package persist

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"testing"
	"testing/iotest"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/gstore"
)

// testGraphs builds a spread of shapes: structured, random, weighted
// (parallel edges merged into non-integer weights), a graph with
// isolated nodes, a single-edge graph, and an empty graph.
func testGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	er, err := gen.ErdosRenyi(200, 0.05, rng)
	if err != nil {
		t.Fatal(err)
	}
	ff, err := gen.ForestFire(gen.ForestFireConfig{N: 500, FwdProb: 0.35, Ambs: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	wb := graph.NewBuilder(10)
	for i := 0; i < 40; i++ {
		u, v := rng.Intn(10), rng.Intn(10)
		wb.AddWeightedEdge(u, v, 0.1+rng.Float64())
	}
	weighted, err := wb.Build()
	if err != nil {
		t.Fatal(err)
	}
	ib := graph.NewBuilder(6)
	ib.AddEdge(0, 3) // nodes 1,2,4,5 isolated
	isolated, err := ib.Build()
	if err != nil {
		t.Fatal(err)
	}
	eb := graph.NewBuilder(4)
	empty, err := eb.Build()
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{
		"ring":     gen.RingOfCliques(6, 5),
		"er":       er,
		"ff":       ff,
		"weighted": weighted,
		"isolated": isolated,
		"empty":    empty,
	}
}

// weightedTestGraph is a 40-node path with chords whose weights all
// narrow to float32 losslessly.
func weightedTestGraph(t testing.TB) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(40)
	for i := 0; i < 39; i++ {
		b.AddWeightedEdge(i, i+1, 0.5+float64(i%4))
		if i+9 < 40 {
			b.AddWeightedEdge(i, i+9, 2.25)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// v1Fixture returns testdata/v1_weighted.gsnap: weightedTestGraph in
// the legacy v1 layout, written by the v1 writer before it was retired.
// Nothing writes v1 any more; the fixture pins that it still reads.
func v1Fixture(t testing.TB) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "v1_weighted.gsnap"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// assertSameCSR asserts that two graphs are bit-identical: CSR arrays,
// degrees, volume, node and edge counts.
func assertSameCSR(t *testing.T, want, got *graph.Graph) {
	t.Helper()
	if want.N() != got.N() || want.M() != got.M() {
		t.Fatalf("shape mismatch: want n=%d m=%d, got n=%d m=%d", want.N(), want.M(), got.N(), got.M())
	}
	if !slices.Equal(want.RawRowPtr(), got.RawRowPtr()) {
		t.Fatalf("rowPtr differs")
	}
	if !slices.Equal(want.RawAdj(), got.RawAdj()) {
		t.Fatalf("adjacency differs")
	}
	if (want.RawWeights32() == nil) != (got.RawWeights32() == nil) || !slices.Equal(want.RawWeights32(), got.RawWeights32()) ||
		(want.RawWeights64() == nil) != (got.RawWeights64() == nil) || !slices.Equal(want.RawWeights64(), got.RawWeights64()) {
		t.Fatalf("weights differ")
	}
	if !slices.Equal(want.Degrees(), got.Degrees()) {
		t.Fatalf("degrees differ")
	}
	if want.Volume() != got.Volume() {
		t.Fatalf("volume differs: %v vs %v", want.Volume(), got.Volume())
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	for name, g := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := WriteSnapshot(&buf, g); err != nil {
				t.Fatal(err)
			}
			got, err := ReadCompact(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			assertSameCSR(t, g, got)
		})
	}
}

// TestSnapshotBytesPinned pins the exact bytes WriteSnapshot produces:
// the format has one canonical encoding per graph, and these digests
// are those of the v2 writer the format shipped with.
func TestSnapshotBytesPinned(t *testing.T) {
	want := map[string]string{
		"empty":    "459fc8fade98820dfbab4cbed780e6a64ab9b2296273f032777e9861201d649d",
		"er":       "0c3cea30b620a5c021e5d97fa72fcb7317a95b1c639d4bdb788bd2ed83eea23b",
		"ff":       "185a2f8dfe83f4beba33ab711929971127924da2f344f672590956cbd0caeae9",
		"isolated": "7b8c169402c60b3fdde997ed5ae15d59a319cadeee80f07048cc74bab42d4939",
		"ring":     "a2852e0048c58bdbc7b06d4e53d09afe819ef7ef90d37b2de5c13cdc42f6024a",
		"weighted": "71792062cd86fb961f8bfdd900f051612776e276e2230e0c54de7b4e3860f45d",
		"f32":      "a29bddd5deb34dd7e92fcb134ceace026e3dd0f40cbf73a41aa838d20177dc3b",
	}
	graphs := testGraphs(t)
	graphs["f32"] = weightedTestGraph(t)
	for name, g := range graphs {
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, gstore.Wrap(g)); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != want[name] {
			t.Errorf("%s: snapshot sha256 %s, want %s", name, got, want[name])
		}
	}
}

// TestV1FixtureReads checks that a v1 snapshot still decodes to the
// graph that was written, bit for bit, on every path that reads one:
// the heap and compact decoders, and recovery on the mmap backend,
// which cannot map v1 and serves it compact instead.
func TestV1FixtureReads(t *testing.T) {
	want := weightedTestGraph(t)
	data := v1Fixture(t)
	g, err := ReadCompact(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	assertSameCSR(t, want, g)
	c, err := readSnapshot(bytes.NewReader(data), -1)
	if err != nil {
		t.Fatal(err)
	}
	assertSameCompact(t, want, c, gstore.KindCompact)

	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "old"+SnapshotExt), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenMapped(filepath.Join(root, "old"+SnapshotExt)); !errors.Is(err, ErrNotMappable) {
		t.Fatalf("OpenMapped(v1) = %v, want ErrNotMappable", err)
	}
	var logged []string
	_, rec, err := Recover(root, gstore.KindMmap, nil, func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec) != 1 || rec[0].Name != "old" || rec[0].Graph == nil {
		t.Fatalf("recovered %+v, want the sealed graph \"old\"", rec)
	}
	assertSameCompact(t, want, rec[0].Graph, gstore.KindCompact)
	if !strings.Contains(strings.Join(logged, "\n"), "serving compact instead") {
		t.Fatalf("no fallback log line: %q", logged)
	}
}

// assertSameCompact asserts that g is served from kind and holds want
// bit for bit.
func assertSameCompact(t *testing.T, want *graph.Graph, g gstore.Graph, kind gstore.Kind) {
	t.Helper()
	if g.Backend() != kind {
		t.Fatalf("backend %q, want %q", g.Backend(), kind)
	}
	assertSameCSR(t, want, g)
}

// TestStreamedLoadGrowsWithTheBytes reads snapshots through a stream,
// whose length the load cannot know in advance. A header that claims
// tens of gigabytes over a few bytes must fail having allocated in
// proportion to what arrived, and a snapshot several times the initial
// buffer, delivered in short reads, must load intact.
func TestStreamedLoadGrowsWithTheBytes(t *testing.T) {
	h := &v2Header{n: math.MaxUint32, m: 1 << 30}
	lens := h.sectionLens()
	off := uint64(v2HeaderSize)
	for i := range h.sec {
		h.sec[i] = v2Section{off: off, len: lens[i]}
		off += pad8(lens[i])
	}
	stream := append(encodeV2Header(h), make([]byte, 1000)...)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := readSnapshot(bytes.NewReader(stream), -1)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a header claiming gigabytes over 1000 bytes was accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 4*sectionChunk {
		t.Errorf("rejecting a %d-byte stream allocated %d bytes", len(stream), got)
	}

	g, err := gen.Kronecker(gen.KroneckerConfig{Levels: 12}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, g); err != nil {
		t.Fatal(err)
	}
	if buf.Len() < 4*sectionChunk {
		t.Fatalf("snapshot of %d bytes does not outgrow the initial buffer", buf.Len())
	}
	got, err := ReadCompact(iotest.HalfReader(bytes.NewReader(buf.Bytes())))
	if err != nil {
		t.Fatal(err)
	}
	assertSameCSR(t, g, got)
}

// TestDecodeWordsMatchesAliasing checks the copying decode, which hosts
// whose layout cannot alias a snapshot use, against the aliasing this
// host uses: every section of every weight form.
func TestDecodeWordsMatchesAliasing(t *testing.T) {
	if !hostLayoutMappable() {
		t.Skip("this host decodes; there is no aliasing to compare against")
	}
	graphs := testGraphs(t)
	graphs["f32"] = weightedTestGraph(t)
	for name, g := range graphs {
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, g); err != nil {
			t.Fatal(err)
		}
		data := alignedBytes(buf.Len())
		copy(data, buf.Bytes())
		h, err := verifyV2(data)
		if err != nil {
			t.Fatal(err)
		}
		weights := sameWords[float64](data, h.sec[v2SecW])
		if h.flags&v2FlagWF32 != 0 {
			weights = sameWords[float32](data, h.sec[v2SecW])
		}
		if !weights || !sameWords[int64](data, h.sec[v2SecRowPtr]) || !sameWords[uint32](data, h.sec[v2SecAdj]) ||
			!sameWords[float64](data, h.sec[v2SecDeg]) {
			t.Errorf("%s: decoded words differ from the aliased ones", name)
		}
	}
}

func sameWords[T sectionWord](data []byte, sec v2Section) bool {
	return slices.Equal(sectionWords[T](data, sec), decodeWords[T](data[sec.off:sec.off+sec.len]))
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	g := testGraphs(t)["weighted"]
	path := filepath.Join(dir, "g.gsnap")
	if err := WriteSnapshotFile(path, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCompactFile(path)
	if err != nil {
		t.Fatal(err)
	}
	assertSameCSR(t, g, got)
	// No temp litter after the atomic rename.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("expected exactly the snapshot file, found %d entries", len(entries))
	}
	// ReadGraphFile dispatches on the extension.
	auto, err := ReadGraphFile(path)
	if err != nil {
		t.Fatal(err)
	}
	assertSameCompact(t, g, auto, gstore.KindCompact)
}

// TestSnapshotEveryPrefixFails asserts the truncation property: no
// proper prefix of a valid snapshot decodes successfully (and none
// panics).
func TestSnapshotEveryPrefixFails(t *testing.T) {
	g := gen.RingOfCliques(3, 4)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for i := 0; i < len(data); i++ {
		if _, err := ReadCompact(bytes.NewReader(data[:i])); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded successfully", i, len(data))
		}
	}
}

// widePatched returns the v2 snapshot of a 5-cycle whose weights are
// all w and whose degrees are all 2w, with the weights stored as
// float64: the writer's bytes for a 5-cycle with weights 0.1, patched
// in place, with the weight and degree section CRCs and the header CRC
// recomputed.
func widePatched(t testing.TB, w float64) []byte {
	b := graph.NewBuilder(5)
	for u := 0; u < 5; u++ {
		b.AddWeightedEdge(u, (u+1)%5, 0.1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	h, err := parseV2Header(data[:v2HeaderSize])
	if err != nil || h.flags != v2FlagW {
		t.Fatalf("5-cycle header: flags %#x, %v; want float64 weights", h.flags, err)
	}
	for i, v := range map[int]float64{v2SecW: w, v2SecDeg: 2 * w} {
		sec := &h.sec[i]
		for off := sec.off; off < sec.off+sec.len; off += 8 {
			binary.LittleEndian.PutUint64(data[off:], math.Float64bits(v))
		}
		sec.crc = crc32.ChecksumIEEE(data[sec.off : sec.off+sec.len])
	}
	copy(data, encodeV2Header(h))
	return data
}

// TestWideWeightSectionRefused: a snapshot whose float64 weight section
// holds only ones, or only float32-exact weights, is refused by the
// copying decode and by OpenMapped, since the writer would store it
// narrower; the same patch with weights that need float64 loads.
func TestWideWeightSectionRefused(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		w    float64
		want string
	}{
		{1, "weights stored as float64, wider than their narrowest lossless form unit"},
		{0.5, "weights stored as float64, wider than their narrowest lossless form float32"},
		{0.3, ""},
	} {
		data := widePatched(t, tc.w)
		path := filepath.Join(dir, fmt.Sprintf("w%v%s", tc.w, SnapshotExt))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := ReadCompact(bytes.NewReader(data))
		c, merr := OpenMapped(path)
		if merr == nil {
			c.Close()
		}
		if tc.want == "" {
			if err != nil || merr != nil {
				t.Fatalf("w=%v: ReadCompact %v, OpenMapped %v; want both to load", tc.w, err, merr)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("w=%v: ReadCompact = %v, want %q", tc.w, err, tc.want)
		}
		if merr == nil || !strings.Contains(merr.Error(), tc.want) {
			t.Errorf("w=%v: OpenMapped = %v, want %q", tc.w, merr, tc.want)
		}
	}
}

// TestRecoverQuarantinesWideWeights: a wide snapshot already in a data
// directory is set aside at boot, not fatal, on either backend.
func TestRecoverQuarantinesWideWeights(t *testing.T) {
	for _, kind := range []gstore.Kind{gstore.KindCompact, gstore.KindMmap} {
		root := t.TempDir()
		if err := os.WriteFile(filepath.Join(root, "wide"+SnapshotExt), widePatched(t, 1), 0o644); err != nil {
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

// TestSnapshotEveryByteFlipFails asserts the checksum property: any
// single-bit corruption anywhere in the file is detected.
func TestSnapshotEveryByteFlipFails(t *testing.T) {
	g := gen.RingOfCliques(3, 4)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for i := 0; i < len(data); i++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), data...)
			mut[i] ^= 1 << bit
			if _, err := ReadCompact(bytes.NewReader(mut)); err == nil {
				t.Fatalf("flip of byte %d bit %d went undetected", i, bit)
			}
		}
	}
}

func TestWALRoundTripAndSealEquivalence(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.wal")
	const nodes = 50
	w, err := CreateWAL(path, nodes)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	var logged [][]Edge
	for b := 0; b < 7; b++ {
		batch := make([]Edge, 0, 20)
		for i := 0; i < 20; i++ {
			batch = append(batch, Edge{U: rng.Intn(nodes), V: rng.Intn(nodes), W: 0.5 + rng.Float64()})
		}
		if err := w.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
		logged = append(logged, batch)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second Close must be a no-op, got %v", err)
	}

	w2, gotNodes, batches, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if gotNodes != nodes {
		t.Fatalf("replayed node count %d, want %d", gotNodes, nodes)
	}
	if !reflect.DeepEqual(batches, logged) {
		t.Fatalf("replayed batches differ from logged batches")
	}

	// Replay → seal reproduces the CSR the direct build produces.
	direct := graph.NewBuilder(nodes)
	replayed := graph.NewBuilder(nodes)
	for _, batch := range logged {
		for _, e := range batch {
			direct.AddWeightedEdge(e.U, e.V, e.W)
		}
	}
	for _, batch := range batches {
		for _, e := range batch {
			replayed.AddWeightedEdge(e.U, e.V, e.W)
		}
	}
	dg, err := direct.Build()
	if err != nil {
		t.Fatal(err)
	}
	rg, err := replayed.Build()
	if err != nil {
		t.Fatal(err)
	}
	assertSameCSR(t, dg, rg)

	// The reopened WAL keeps accepting durable appends.
	extra := []Edge{{U: 1, V: 2, W: 1}}
	if err := w2.AppendBatch(extra); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	_, _, batches3, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(batches3) != len(logged)+1 || !reflect.DeepEqual(batches3[len(batches3)-1], extra) {
		t.Fatalf("append after replay not recovered")
	}
}

// TestWALReusesBoundedRecord: AppendBatch encodes into the last record's
// buffer, so a steady stream of batches allocates nothing, the file is
// byte for byte the header and each batch's record encoded afresh, and
// after one oversized batch the log keeps no more than 1 MiB of buffer.
func TestWALReusesBoundedRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.wal")
	w, err := CreateWAL(path, 10)
	if err != nil {
		t.Fatal(err)
	}
	batch := func(n int) []Edge {
		b := make([]Edge, n)
		for i := range b {
			b[i] = Edge{U: i % 10, V: (i + 3) % 10, W: 1 + float64(i%7)/8}
		}
		return b
	}
	want := walHeader(10)
	for _, n := range []int{256, 3, maxKeptRecord/walEdgeBytes + 1, 17, 256} {
		if err := w.AppendBatch(batch(n)); err != nil {
			t.Fatal(err)
		}
		want = appendWALRecord(want, batch(n))
		if cap(w.rec) > maxKeptRecord {
			t.Fatalf("after a %d-edge batch the log keeps a %d-byte buffer", n, cap(w.rec))
		}
	}
	steady := batch(256)
	if got := testing.AllocsPerRun(20, func() {
		if err := w.AppendBatch(steady); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("a steady-state AppendBatch allocates %v times, want 0", got)
	}
	for range 21 { // AllocsPerRun's warm-up run and its 20
		want = appendWALRecord(want, steady)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("WAL file is %d bytes unlike the %d of fresh records", len(got), len(want))
	}
}

// walFixture writes a small valid WAL and returns its bytes.
func walFixture(t *testing.T) []byte {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "g.wal")
	w, err := CreateWAL(path, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendBatch([]Edge{{0, 1, 1}, {1, 2, 2.5}}); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendBatch([]Edge{{2, 3, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestWALAnomaliesFailOpen(t *testing.T) {
	valid := walFixture(t)
	cases := map[string]func([]byte) []byte{
		"torn final record": func(b []byte) []byte { return b[:len(b)-5] },
		"torn record header": func(b []byte) []byte {
			return b[:len(b)-28] // final record is 8+24 bytes; leave 4 header bytes
		},
		"flipped payload byte": func(b []byte) []byte {
			mut := append([]byte(nil), b...)
			mut[len(mut)-1] ^= 0x40
			return mut
		},
		"bad magic": func(b []byte) []byte {
			mut := append([]byte(nil), b...)
			mut[0] = 'X'
			return mut
		},
		"bad header checksum": func(b []byte) []byte {
			mut := append([]byte(nil), b...)
			mut[16] ^= 0xff
			return mut
		},
		"empty file": func(b []byte) []byte { return nil },
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "g.wal")
			if err := os.WriteFile(path, corrupt(valid), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, _, err := OpenWAL(path); err == nil {
				t.Fatalf("OpenWAL accepted a %s", name)
			}
		})
	}
	// And the unmodified fixture still opens.
	path := filepath.Join(t.TempDir(), "g.wal")
	if err := os.WriteFile(path, valid, 0o644); err != nil {
		t.Fatal(err)
	}
	w, _, batches, err := OpenWAL(path)
	if err != nil {
		t.Fatalf("valid WAL rejected: %v", err)
	}
	w.Close()
	if len(batches) != 2 {
		t.Fatalf("want 2 batches, got %d", len(batches))
	}
}

func TestDirQuarantineAndScan(t *testing.T) {
	d, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g := gen.RingOfCliques(3, 3)
	if err := d.SaveSnapshot("a", g); err != nil {
		t.Fatal(err)
	}
	w, err := d.CreateWAL("b", 5)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	snaps, wals, err := d.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snaps, []string{"a"}) || !reflect.DeepEqual(wals, []string{"b"}) {
		t.Fatalf("scan: snaps=%v wals=%v", snaps, wals)
	}
	q1, err := d.Quarantine(d.SnapshotPath("a"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(q1, QuarantineExt) {
		t.Fatalf("quarantine path %q missing %s", q1, QuarantineExt)
	}
	// A second quarantine of the same logical name must not clobber the
	// first.
	if err := d.SaveSnapshot("a", g); err != nil {
		t.Fatal(err)
	}
	q2, err := d.Quarantine(d.SnapshotPath("a"))
	if err != nil {
		t.Fatal(err)
	}
	if q1 == q2 {
		t.Fatalf("second quarantine reused path %q", q1)
	}
	snaps, wals, err = d.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 0 || !reflect.DeepEqual(wals, []string{"b"}) {
		t.Fatalf("post-quarantine scan: snaps=%v wals=%v", snaps, wals)
	}
	if got := d.Counters().Quarantined.Load(); got != 2 {
		t.Fatalf("quarantine counter = %d, want 2", got)
	}
}

// TestDirCountsWALAppends checks that a log created or reopened through
// a Dir counts its own durable appends, and that a log opened without
// one counts nothing.
func TestDirCountsWALAppends(t *testing.T) {
	d, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	batch := []Edge{{U: 0, V: 1, W: 1}}
	appendN := func(w *WAL, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := w.AppendBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	w, err := d.CreateWAL("g", 5)
	if err != nil {
		t.Fatal(err)
	}
	appendN(w, 3)
	w, _, _, err = d.OpenWAL("g")
	if err != nil {
		t.Fatal(err)
	}
	appendN(w, 2)
	w, err = CreateWAL(filepath.Join(t.TempDir(), "other"+WALExt), 5)
	if err != nil {
		t.Fatal(err)
	}
	appendN(w, 4)
	if got := d.Counters().WALAppends.Load(); got != 5 {
		t.Fatalf("WALAppends = %d after 5 appends through the Dir, want 5", got)
	}
}

// TestWriteSnapshotWritesInPlace bounds the bytes WriteSnapshot
// allocates for a graph with all four sections on a host whose layout
// matches the file's: the sections are written from the graph's own
// arrays, so a call allocates the header and a few small objects, not
// a buffer that grows with the graph.
func TestWriteSnapshotWritesInPlace(t *testing.T) {
	if !hostLayoutMappable() {
		t.Skip("this host encodes a copy of every section")
	}
	g := testGraphs(t)["weighted"]
	if err := WriteSnapshot(io.Discard, g); err != nil { // warm up
		t.Fatal(err)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if err := WriteSnapshot(io.Discard, g); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	if limit := uint64(1024); perRun > limit {
		t.Errorf("WriteSnapshot allocated %d bytes per call, want at most %d (the header and small objects)", perRun, limit)
	}
}

// TestEncodeWordsMatchesByteView checks the copying encode, which hosts
// whose layout cannot write a graph's arrays as they lie use, against
// the byte views this host writes: every section of every weight form.
func TestEncodeWordsMatchesByteView(t *testing.T) {
	if !hostLayoutMappable() {
		t.Skip("this host encodes; there is no byte view to compare against")
	}
	graphs := testGraphs(t)
	graphs["f32"] = weightedTestGraph(t)
	for name, hg := range graphs {
		g := hg
		if !sameBytes(g.RawRowPtr()) || !sameBytes(g.RawAdj()) || !sameBytes(g.RawWeights32()) ||
			!sameBytes(g.RawWeights64()) || !sameBytes(g.Degrees()) {
			t.Errorf("%s: encoded words differ from the byte views", name)
		}
	}
}

func sameBytes[T sectionWord](vals []T) bool {
	return bytes.Equal(sectionBytes(vals), encodeWords(vals))
}

// TestSyncDirReportsFailures: a directory fsync that cannot happen is an
// error, so WriteSnapshotFile cannot report a rename durable that may
// not be; only a platform's refusal to fsync directories is forgiven.
func TestSyncDirReportsFailures(t *testing.T) {
	dir := t.TempDir()
	if err := syncDir(dir); err != nil {
		t.Fatalf("syncDir on a live directory: %v", err)
	}
	gone := filepath.Join(dir, "gone")
	if err := os.Mkdir(gone, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(gone); err != nil {
		t.Fatal(err)
	}
	if err := syncDir(gone); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("syncDir on a removed directory = %v, want a not-exist error", err)
	}
	for _, c := range []struct {
		err     error
		refused bool
	}{
		{&os.PathError{Op: "sync", Path: dir, Err: syscall.EINVAL}, true},
		{&os.PathError{Op: "sync", Path: dir, Err: syscall.ENOTSUP}, true},
		{&os.PathError{Op: "sync", Path: dir, Err: syscall.EOPNOTSUPP}, true},
		{&os.PathError{Op: "sync", Path: dir, Err: syscall.EIO}, false},
		{&os.PathError{Op: "sync", Path: dir, Err: syscall.ENOSPC}, false},
		{&os.PathError{Op: "sync", Path: dir, Err: syscall.EBADF}, false},
		{errors.New("invalid argument"), false},
	} {
		if got := dirSyncRefused(c.err); got != c.refused {
			t.Errorf("dirSyncRefused(%v) = %v, want %v", c.err, got, c.refused)
		}
	}
}
