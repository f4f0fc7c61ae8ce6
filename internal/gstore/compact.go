package gstore

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/graph"
)

// WeightForm is the narrowest lossless encoding of an edge-weight
// vector, shared by the compact backend and the GSNAP v2 snapshot
// writer so both pick the same representation (which is what keeps
// diffusion output byte-identical across backends).
type WeightForm int

const (
	// WeightsUnit: every weight is exactly 1.0; nothing is stored.
	WeightsUnit WeightForm = iota
	// WeightsF32: every weight round-trips float64→float32→float64
	// bit-for-bit, so float32 storage is lossless.
	WeightsF32
	// WeightsF64: at least one weight needs the full 64 bits.
	WeightsF64
)

// DetectWeightForm returns the narrowest lossless encoding for w.
func DetectWeightForm(w []float64) WeightForm {
	form := WeightsUnit
	for _, x := range w {
		if x == 1 {
			continue
		}
		if float64(float32(x)) != x {
			return WeightsF64
		}
		form = WeightsF32
	}
	return form
}

// Compact is the compact CSR backend: uint32 adjacency, int64 row
// pointers, float64 degrees, and the narrowest lossless weight array.
// The same struct serves two Kinds — KindCompact when the arrays live
// on the Go heap, KindMmap when they are sliced out of a read-only
// memory mapping (in which case Close unmaps them; writing through any
// accessor is a segfault, not just a bug).
type Compact struct {
	kind      Kind
	n         int
	m         int
	rowPtr    []int64 // length n+1
	adj       []uint32
	w32       []float32 // at most one of w32/w64 non-nil; both nil ⇒ unit
	w64       []float64
	deg       []float64 // length n, bit-identical to the heap graph's
	volume    float64
	closer    func() error // munmap for mapped graphs; nil otherwise
	closeOnce sync.Once
}

// NewCompact converts a heap graph to the compact in-heap form. The
// degrees and volume are copied bit-for-bit (not recomputed), so
// degree-thresholded diffusions behave identically. Fails only when
// the graph is too large for uint32 node ids.
func NewCompact(g *graph.Graph) (*Compact, error) {
	if uint64(g.N()) > math.MaxUint32 {
		return nil, fmt.Errorf("gstore: %d nodes exceed the compact backend's uint32 id space", g.N())
	}
	rowPtrI, adjI, wts := g.CSR()
	c := &Compact{
		kind:   KindCompact,
		n:      g.N(),
		m:      g.M(),
		rowPtr: make([]int64, len(rowPtrI)),
		adj:    make([]uint32, len(adjI)),
		deg:    append([]float64(nil), g.Degrees()...),
		volume: g.Volume(),
	}
	for i, v := range rowPtrI {
		c.rowPtr[i] = int64(v)
	}
	for i, v := range adjI {
		c.adj[i] = uint32(v)
	}
	switch DetectWeightForm(wts) {
	case WeightsUnit:
	case WeightsF32:
		c.w32 = make([]float32, len(wts))
		for i, x := range wts {
			c.w32[i] = float32(x)
		}
	default:
		c.w64 = append([]float64(nil), wts...)
	}
	return c, nil
}

// NewCompactFromParts assembles a Compact directly from raw arrays —
// the entry point of the snapshot readers (both the copying v2 decoder
// and the mmap path). Exactly one of w32/w64 may be non-nil (both nil
// means unit weights). Every structural invariant graph.FromCSR
// guarantees is re-verified here, plus one more: deg must be
// bit-identical to the row-order weight accumulation, so an untrusted
// snapshot cannot smuggle in degrees that disagree with its adjacency.
// closer, if non-nil, is invoked by Close (the mmap path's munmap).
func NewCompactFromParts(kind Kind, rowPtr []int64, adj []uint32, w32 []float32, w64 []float64, deg []float64, closer func() error) (*Compact, error) {
	if kind != KindCompact && kind != KindMmap {
		return nil, fmt.Errorf("gstore: compact parts cannot serve backend %q", kind)
	}
	if len(rowPtr) < 1 {
		return nil, fmt.Errorf("gstore: rowPtr is empty")
	}
	n := len(rowPtr) - 1
	if uint64(n) > math.MaxUint32 {
		return nil, fmt.Errorf("gstore: %d nodes exceed uint32 id space", n)
	}
	if rowPtr[0] != 0 {
		return nil, fmt.Errorf("gstore: rowPtr[0] = %d, want 0", rowPtr[0])
	}
	for i := 0; i < n; i++ {
		if rowPtr[i+1] < rowPtr[i] {
			return nil, fmt.Errorf("gstore: rowPtr decreases at %d (%d -> %d)", i, rowPtr[i], rowPtr[i+1])
		}
	}
	if rowPtr[n] != int64(len(adj)) {
		return nil, fmt.Errorf("gstore: rowPtr[n] = %d but len(adj) = %d", rowPtr[n], len(adj))
	}
	if len(adj)%2 != 0 {
		return nil, fmt.Errorf("gstore: odd entry count %d cannot be symmetric", len(adj))
	}
	if w32 != nil && w64 != nil {
		return nil, fmt.Errorf("gstore: both float32 and float64 weights present")
	}
	if w32 != nil && len(w32) != len(adj) {
		return nil, fmt.Errorf("gstore: len(w32) = %d but len(adj) = %d", len(w32), len(adj))
	}
	if w64 != nil && len(w64) != len(adj) {
		return nil, fmt.Errorf("gstore: len(w64) = %d but len(adj) = %d", len(w64), len(adj))
	}
	if len(deg) != n {
		return nil, fmt.Errorf("gstore: len(deg) = %d but n = %d", len(deg), n)
	}
	c := &Compact{
		kind: kind, n: n, m: len(adj) / 2,
		rowPtr: rowPtr, adj: adj, w32: w32, w64: w64, deg: deg,
		closer: closer,
	}
	verifyStart := time.Now()
	if err := c.validate(); err != nil {
		return nil, err
	}
	stats.noteOpenVerify(int64(time.Since(verifyStart)))
	for _, d := range deg {
		c.volume += d
	}
	if closer != nil {
		// GC backstop: a mapped graph whose last reference is dropped
		// without an explicit Close (the store's Delete path does this
		// deliberately — see GraphStore.Delete) is unmapped when it is
		// collected, so deleted graphs never pin their mappings for the
		// life of the process. Close is idempotent, so the finalizer
		// and an explicit Close cannot double-unmap.
		runtime.SetFinalizer(c, func(c *Compact) {
			stats.noteFinalizerUnmap()
			_ = c.Close()
		})
	}
	return c, nil
}

// weightAt returns the weight of adjacency entry k in full precision.
func (c *Compact) weightAt(k int64) float64 {
	switch {
	case c.w64 != nil:
		return c.w64[k]
	case c.w32 != nil:
		return float64(c.w32[k])
	default:
		return 1
	}
}

// validate re-checks the CSR invariants (rows strictly ascending with
// no self-loops, weights positive and finite, exact symmetry) and that
// deg matches the row-order accumulation bit-for-bit.
func (c *Compact) validate() error {
	pairs := 0
	for u := 0; u < c.n; u++ {
		prev := int64(-1)
		var du float64
		for k := c.rowPtr[u]; k < c.rowPtr[u+1]; k++ {
			v := int64(c.adj[k])
			if v >= int64(c.n) {
				return fmt.Errorf("gstore: neighbor %d of node %d out of range [0,%d)", v, u, c.n)
			}
			if v == int64(u) {
				return fmt.Errorf("gstore: self-loop at node %d", u)
			}
			if v <= prev {
				return fmt.Errorf("gstore: row %d not strictly ascending at entry %d", u, k-c.rowPtr[u])
			}
			prev = v
			wt := c.weightAt(k)
			if wt <= 0 || math.IsNaN(wt) || math.IsInf(wt, 0) {
				return fmt.Errorf("gstore: edge (%d,%d) has invalid weight %v", u, v, wt)
			}
			du += wt
			if int64(u) < v {
				mw, ok := c.findEdge(int(v), u)
				if !ok || mw != wt {
					return fmt.Errorf("gstore: edge (%d,%d) weight %v has no symmetric mirror", u, v, wt)
				}
				pairs++
			}
		}
		if math.Float64bits(du) != math.Float64bits(c.deg[u]) {
			return fmt.Errorf("gstore: stored degree %v of node %d disagrees with its row (recomputed %v)", c.deg[u], u, du)
		}
	}
	if 2*pairs != len(c.adj) {
		return fmt.Errorf("gstore: %d upper-triangle edges cannot cover %d entries", pairs, len(c.adj))
	}
	return nil
}

// findEdge locates edge {u,v} in u's (sorted) row.
func (c *Compact) findEdge(u, v int) (float64, bool) {
	lo, hi := c.rowPtr[u], c.rowPtr[u+1]
	row := c.adj[lo:hi]
	k := sort.Search(len(row), func(i int) bool { return row[i] >= uint32(v) })
	if k < len(row) && row[k] == uint32(v) {
		return c.weightAt(lo + int64(k)), true
	}
	return 0, false
}

// N returns the number of nodes.
func (c *Compact) N() int { return c.n }

// M returns the number of undirected edges.
func (c *Compact) M() int { return c.m }

// Volume returns vol(V).
func (c *Compact) Volume() float64 { return c.volume }

// Degree returns the weighted degree of u.
func (c *Compact) Degree(u int) float64 { return c.deg[u] }

// Neighbors returns the zero-alloc cursor over u's row.
func (c *Compact) Neighbors(u int) NeighborIter {
	lo, hi := c.rowPtr[u], c.rowPtr[u+1]
	it := NeighborIter{adj32: c.adj[lo:hi], pin: c}
	if c.w64 != nil {
		it.w64 = c.w64[lo:hi]
	} else if c.w32 != nil {
		it.w32 = c.w32[lo:hi]
	}
	return it
}

// Backend reports KindCompact or KindMmap.
func (c *Compact) Backend() Kind { return c.kind }

// RawRowPtr exposes the row-pointer array (length n+1) for the
// kernel's loops. Read-only: for a mapped graph the bytes belong to a
// read-only mapping.
func (c *Compact) RawRowPtr() []int64 { return c.rowPtr }

// RawAdj exposes the adjacency array (length 2m). Read-only.
func (c *Compact) RawAdj() []uint32 { return c.adj }

// RawWeights32 exposes the float32 weight array, nil unless the
// weights are stored as float32. Read-only.
func (c *Compact) RawWeights32() []float32 { return c.w32 }

// RawWeights64 exposes the float64 weight array, nil unless the
// weights are stored as float64 (nil together with RawWeights32 means
// unit weights). Read-only.
func (c *Compact) RawWeights64() []float64 { return c.w64 }

// RawDegrees exposes the degree array (length n). Read-only.
func (c *Compact) RawDegrees() []float64 { return c.deg }

// Close releases the backing mapping, if any. Idempotent and safe for
// concurrent use: the first call returns the unmap error, later calls
// return nil. After Close on a mapped graph, every slice previously
// obtained from it is dead. Mapped graphs that are never explicitly
// closed are unmapped by a finalizer when collected.
func (c *Compact) Close() error {
	var err error
	c.closeOnce.Do(func() {
		runtime.SetFinalizer(c, nil)
		if c.closer != nil {
			err = c.closer()
			c.closer = nil
		}
	})
	return err
}

// materialize widens the compact arrays back into a heap graph,
// revalidating through graph.FromCSR (which also reproduces the
// degree floats bit-for-bit, as verified at construction).
func (c *Compact) materialize() (*graph.Graph, error) {
	rowPtr := make([]int, len(c.rowPtr))
	for i, v := range c.rowPtr {
		rowPtr[i] = int(v)
	}
	adj := make([]int, len(c.adj))
	for i, v := range c.adj {
		adj[i] = int(v)
	}
	w := make([]float64, len(c.adj))
	for i := range w {
		w[i] = c.weightAt(int64(i))
	}
	g, err := graph.FromCSR(rowPtr, adj, w)
	if err != nil {
		return nil, fmt.Errorf("gstore: materialize: %w", err)
	}
	return g, nil
}
