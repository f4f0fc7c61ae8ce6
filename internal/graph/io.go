package graph

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// WriteEdgeList writes the graph as a plain-text edge list: a header line
// "# nodes <n>" followed by one "u v w" line per undirected edge (u < v).
// Weights equal to 1 are written without a weight column for
// compatibility with common SNAP-style files.
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# nodes %d\n", g.n); err != nil {
		return fmt.Errorf("graph: write header: %w", err)
	}
	var werr error
	g.Edges(func(u, v int, wt float64) {
		if werr != nil {
			return
		}
		if wt == 1 {
			_, werr = fmt.Fprintf(bw, "%d %d\n", u, v)
		} else {
			_, werr = fmt.Fprintf(bw, "%d %d %g\n", u, v, wt)
		}
	})
	if werr != nil {
		return fmt.Errorf("graph: write edge: %w", werr)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("graph: flush: %w", err)
	}
	return nil
}

// ReadEdgeListFile reads an edge list from path, or from stdin when path
// is empty — the shared input convention of the cmd/ CLIs. Files ending
// in ".gz" are transparently gunzipped. The file's Close error is
// checked, not deferred away.
func ReadEdgeListFile(path string) (*Graph, error) {
	if path == "" {
		return ReadEdgeList(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	var r io.Reader = f
	var gz *gzip.Reader
	if strings.HasSuffix(path, ".gz") {
		gz, err = gzip.NewReader(f)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("graph: gunzip %s: %w", path, err)
		}
		r = gz
	}
	g, err := ReadEdgeList(r)
	if err != nil {
		f.Close()
		return nil, err
	}
	if gz != nil {
		if err := gz.Close(); err != nil {
			f.Close()
			return nil, fmt.Errorf("graph: gunzip %s: %w", path, err)
		}
	}
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("graph: close %s: %w", path, err)
	}
	return g, nil
}

// MaxEdgeListNodes caps the node count an edge list may declare or
// imply, and graphd applies the same cap to streamed graphs. Builder.Build
// allocates 32 B per node before any edge (rowPtr, degrees and two
// int work arrays, 8 B each), so 1<<26 nodes cost 2 GiB: a 20-byte
// "# nodes" header cannot ask for more memory than a server has. The
// cap also keeps every stored graph inside the uint32 ids the compact
// and mmap backends use.
const MaxEdgeListNodes = 1 << 26

// ReadEdgeList parses the format produced by WriteEdgeList, tolerating
// the dialects found in the wild: blank lines and '#'- or '%'-prefixed
// comment lines anywhere in the file (SNAP and Matrix-Market style),
// space- or tab-separated columns, and an optional "# nodes <n>" header.
// If no header is present, the node count is inferred as max node id + 1.
// Parse errors carry the 1-based line number and the offending line.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	type rawEdge struct {
		u, v int
		w    float64
	}
	var edges []rawEdge
	n := -1
	maxID := -1
	lineNo := 0
	// lineErrf reports a parse error on line lineNo, unless the reader
	// failed: then Scan has handed over the cut tail of what it read,
	// a line the input never held, and the read error is the fault.
	lineErrf := func(line, format string, args ...any) error {
		if err := sc.Err(); err != nil {
			return fmt.Errorf("graph: scan: %w", err)
		}
		return fmt.Errorf("graph: line %d %q: "+format, append([]any{lineNo, line}, args...)...)
	}
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") || strings.HasPrefix(line, "%") {
			fields := strings.Fields(line)
			if len(fields) == 3 && fields[1] == "nodes" {
				v, err := strconv.Atoi(fields[2])
				if err != nil {
					return nil, lineErrf(line, "bad node count %q: %w", fields[2], err)
				}
				if v > MaxEdgeListNodes {
					return nil, lineErrf(line, "node count %d exceeds limit %d", v, MaxEdgeListNodes)
				}
				n = v
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 && len(fields) != 3 {
			return nil, lineErrf(line, "expected 'u v [w]'")
		}
		u, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, lineErrf(line, "bad node %q: %w", fields[0], err)
		}
		v, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, lineErrf(line, "bad node %q: %w", fields[1], err)
		}
		w := 1.0
		if len(fields) == 3 {
			w, err = strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, lineErrf(line, "bad weight %q: %w", fields[2], err)
			}
		}
		if u < 0 || v < 0 {
			return nil, lineErrf(line, "negative node id")
		}
		if u >= MaxEdgeListNodes || v >= MaxEdgeListNodes {
			return nil, lineErrf(line, "node id exceeds limit %d", MaxEdgeListNodes)
		}
		if u > maxID {
			maxID = u
		}
		if v > maxID {
			maxID = v
		}
		edges = append(edges, rawEdge{u, v, w})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: scan: %w", err)
	}
	if n < 0 {
		n = maxID + 1
	}
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddWeightedEdge(e.u, e.v, e.w)
	}
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("graph: build from edge list: %w", err)
	}
	return g, nil
}
