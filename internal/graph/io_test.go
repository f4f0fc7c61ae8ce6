package graph

import (
	"compress/gzip"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/iotest"
)

func TestReadEdgeListDialects(t *testing.T) {
	cases := []struct {
		name    string
		in      string
		wantN   int
		wantM   int
		wantErr string // substring of the expected error, "" for success
	}{
		{name: "plain", in: "0 1\n1 2\n", wantN: 3, wantM: 2},
		{name: "header", in: "# nodes 5\n0 1\n", wantN: 5, wantM: 1},
		{name: "blank lines", in: "\n0 1\n\n\n1 2\n\n", wantN: 3, wantM: 2},
		{name: "hash comment mid-file", in: "0 1\n# a comment\n1 2\n", wantN: 3, wantM: 2},
		{name: "percent comment mid-file", in: "0 1\n% MatrixMarket-ish\n1 2\n", wantN: 3, wantM: 2},
		{name: "tabs", in: "0\t1\n1\t2\t2.5\n", wantN: 3, wantM: 2},
		{name: "mixed separators", in: "0 \t 1\n1\t2\n", wantN: 3, wantM: 2},
		{name: "weights", in: "0 1 2.0\n0 1 3.0\n", wantN: 2, wantM: 1},
		{name: "trailing spaces", in: "0 1 \n", wantN: 2, wantM: 1},
		{name: "bad field count", in: "0 1\n0 1 2 3\n", wantErr: `line 2 "0 1 2 3"`},
		{name: "bad node", in: "0 x\n", wantErr: `line 1 "0 x": bad node "x"`},
		{name: "bad weight", in: "0 1\n1 2 w\n", wantErr: `line 2 "1 2 w": bad weight "w"`},
		{name: "bad header count", in: "# nodes many\n", wantErr: `line 1`},
		{name: "negative node", in: "0 1\n-1 2\n", wantErr: `line 2 "-1 2": negative node id`},
		{name: "node beyond header", in: "# nodes 2\n0 5\n", wantErr: "out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := ReadEdgeList(strings.NewReader(tc.in))
			if tc.wantErr != "" {
				if err == nil {
					t.Fatalf("want error containing %q, got nil", tc.wantErr)
				}
				if !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %q does not contain %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if g.N() != tc.wantN || g.M() != tc.wantM {
				t.Fatalf("got n=%d m=%d, want n=%d m=%d", g.N(), g.M(), tc.wantN, tc.wantM)
			}
		})
	}
}

// TestReadEdgeListReportsReadErrors: a reader that fails mid-line makes
// the scanner hand over the cut tail ("0") before it reports the
// failure; the reply must name the read error, not a parse error on a
// line the input never held.
func TestReadEdgeListReportsReadErrors(t *testing.T) {
	boom := errors.New("boom")
	_, err := ReadEdgeList(io.MultiReader(strings.NewReader("0 1\n0"), iotest.ErrReader(boom)))
	if !errors.Is(err, boom) || err.Error() != "graph: scan: boom" {
		t.Fatalf("ReadEdgeList = %v, want graph: scan: boom", err)
	}
}

func TestReadEdgeListFileGzip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "graph.txt.gz")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	zw := gzip.NewWriter(f)
	if _, err := zw.Write([]byte("# nodes 4\n0 1\n1 2\n2 3\n")); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	g, err := ReadEdgeListFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 3 {
		t.Fatalf("got n=%d m=%d, want n=4 m=3", g.N(), g.M())
	}

	// A .gz path that is not actually gzipped must fail loudly.
	bad := filepath.Join(dir, "bad.gz")
	if err := os.WriteFile(bad, []byte("0 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadEdgeListFile(bad); err == nil || !strings.Contains(err.Error(), "gunzip") {
		t.Fatalf("want gunzip error, got %v", err)
	}
}
