package persist

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/gstore"
)

// FuzzReadSnapshot drives the snapshot decoder with arbitrary bytes: it
// must never panic, and anything it accepts must be a structurally valid
// graph whose canonical re-encoding pins it down. WriteSnapshot writes
// v2 only, so the property depends on the input's version: an accepted
// v2 input re-encodes to its own bytes (the format has one canonical
// encoding per graph), and an accepted v1 input decodes to the same
// graph as its v2 re-encoding.
func FuzzReadSnapshot(f *testing.F) {
	seed := func(g *graph.Graph) []byte {
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, gstore.Wrap(g)); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	empty, err := graph.NewBuilder(3).Build()
	if err != nil {
		f.Fatal(err)
	}
	wb := graph.NewBuilder(5)
	wb.AddWeightedEdge(0, 4, 2.25)
	wb.AddWeightedEdge(1, 4, 0.5)
	weighted, err := wb.Build()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed(gen.RingOfCliques(3, 4)))
	f.Add(seed(empty))
	f.Add(seed(weighted))
	f.Add([]byte("GSNAP\x00"))
	f.Add([]byte{})
	f.Add(v1Fixture(f))
	f.Add(widePatched(f, 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip("oversized input")
		}
		g, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, gstore.Wrap(g)); err != nil {
			t.Fatalf("accepted graph failed to re-encode: %v", err)
		}
		if binary.LittleEndian.Uint16(data[6:8]) == SnapshotVersion {
			rt, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("v2 re-encoding of an accepted v1 input failed to read back: %v", err)
			}
			assertSameCSR(t, g, rt)
			return
		}
		// The canonical re-encoding must match the accepted prefix of
		// the input (trailing garbage after a complete snapshot is the
		// one liberty the reader takes, since it consumes a stream).
		if len(data) < buf.Len() || !bytes.Equal(data[:buf.Len()], buf.Bytes()) {
			t.Fatalf("accepted bytes are not the canonical encoding of the decoded graph")
		}
	})
}

// FuzzWALReplay drives the write-ahead-log replay with arbitrary bytes:
// it must never panic, and a log it accepts must be exactly the log
// its batches encode to — the header, then one record per batch — so
// replay neither skips nor invents a byte.
func FuzzWALReplay(f *testing.F) {
	var multi []byte
	multi = append(multi, walHeader(10)...)
	multi = appendWALRecord(multi, []Edge{{0, 1, 1}, {1, 2, 2.5}})
	multi = appendWALRecord(multi, []Edge{{2, 3, 1}})
	multi = appendWALRecord(multi, []Edge{{9, 4, 0.125}, {5, 6, 3}, {7, 8, 1}})
	flipped := append([]byte(nil), multi...)
	flipped[len(walHeader(10))+5] ^= 0x01 // first record's CRC
	f.Add(multi)
	f.Add(multi[:len(multi)-7]) // torn final record
	f.Add(flipped)
	f.Add(walHeader(3))
	f.Add([]byte("GWAL\x00\x00"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip("oversized input")
		}
		nodes, batches, err := replayWAL(bytes.NewReader(data))
		if err != nil {
			return
		}
		enc := walHeader(nodes)
		for _, b := range batches {
			enc = appendWALRecord(enc, b)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("accepted log of %d bytes re-encodes to %d different bytes", len(data), len(enc))
		}
	})
}
