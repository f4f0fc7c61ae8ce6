package graph

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzReadEdgeList drives the text edge-list parser with arbitrary
// input: it must never panic, and any graph it accepts must survive a
// write → read round trip bit-identically (CSR arrays, degrees,
// volume), since WriteEdgeList prints weights with full float64
// precision.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("# nodes 5\n0 1\n1 2\n2 3 0.25\n")
	f.Add("0 1\n1 2\n\n% matrix market comment\n2 0\n")
	f.Add("3\t4\t1.5\n4\t5\n")
	f.Add("# nodes 4\n")
	f.Add("")
	f.Add("0 0\n1 1\n")            // self-loops are dropped
	f.Add("0 1\n0 1 2\n0 1 0.5\n") // parallel edges merge
	f.Fuzz(func(t *testing.T, input string) {
		if len(input) > 1<<16 {
			t.Skip("oversized input")
		}
		g, err := ReadEdgeList(strings.NewReader(input))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := g.WriteEdgeList(&buf); err != nil {
			t.Fatalf("accepted graph failed to write: %v", err)
		}
		g2, err := ReadEdgeList(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("round-trip parse failed: %v", err)
		}
		if !reflect.DeepEqual(g.RawRowPtr(), g2.RawRowPtr()) || !reflect.DeepEqual(g.RawAdj(), g2.RawAdj()) ||
			!reflect.DeepEqual(g.RawWeights32(), g2.RawWeights32()) || !reflect.DeepEqual(g.RawWeights64(), g2.RawWeights64()) {
			t.Fatalf("round trip changed the CSR")
		}
		if g.N() != g2.N() || g.M() != g2.M() || g.Volume() != g2.Volume() {
			t.Fatalf("round trip changed n/m/volume: (%d,%d,%v) -> (%d,%d,%v)",
				g.N(), g.M(), g.Volume(), g2.N(), g2.M(), g2.Volume())
		}
	})
}
