package graph

import (
	"fmt"
	"math"
	"sort"
)

// WeightForm is the narrowest lossless encoding of an edge-weight
// vector, shared by the builder, the GSNAP v2 snapshot writer and the
// v1 decoder, so every graph stores its weights one way (which is what
// keeps diffusion output byte-identical across backends).
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

// weightFormOf is the narrowest lossless encoding of one weight.
func weightFormOf(x float64) WeightForm {
	switch {
	case x == 1:
		return WeightsUnit
	case float64(float32(x)) == x:
		return WeightsF32
	}
	return WeightsF64
}

// DetectWeightForm returns the narrowest lossless encoding for w.
func DetectWeightForm[W float32 | float64](w []W) WeightForm {
	form := WeightsUnit
	for _, x := range w {
		if form = max(form, weightFormOf(float64(x))); form == WeightsF64 {
			break
		}
	}
	return form
}

// NarrowWeights stores w (nil means unit weights) in the narrowest
// lossless form DetectWeightForm finds: both nil for unit weights, a
// float32 copy when every weight survives the round trip, and w itself
// otherwise. The v1 snapshot decoder uses it.
func NarrowWeights(w []float64) (w32 []float32, w64 []float64) {
	switch DetectWeightForm(w) {
	case WeightsUnit:
		return nil, nil
	case WeightsF32:
		w32 = make([]float32, len(w))
		for i, x := range w {
			w32[i] = float32(x)
		}
		return w32, nil
	}
	return nil, w
}

// FromParts assembles a Graph from raw CSR arrays and validates them:
// the check every snapshot reader's arrays pass through (gstore's
// NewCompactFromParts adds its telemetry and the mapping's finalizer).
// At most one of w32/w64 may be non-nil (both nil means unit weights).
// It verifies every structural invariant Builder guarantees, plus one
// more: deg must be bit-identical to the row-order weight accumulation,
// so an untrusted snapshot cannot smuggle in degrees that disagree with
// its adjacency. A nil deg is that accumulation (v1 stores no degrees).
// closer, if non-nil, is invoked by Close (the mmap path's munmap).
func FromParts(kind Kind, rowPtr []int64, adj []uint32, w32 []float32, w64 []float64, deg []float64, closer func() error) (*Graph, error) {
	if kind != KindCompact && kind != KindMmap {
		return nil, fmt.Errorf("graph: compact parts cannot serve backend %q", kind)
	}
	if len(rowPtr) < 1 {
		return nil, fmt.Errorf("graph: rowPtr is empty")
	}
	n := len(rowPtr) - 1
	if uint64(n) > math.MaxUint32 {
		return nil, fmt.Errorf("graph: %d nodes exceed uint32 id space", n)
	}
	if rowPtr[0] != 0 {
		return nil, fmt.Errorf("graph: rowPtr[0] = %d, want 0", rowPtr[0])
	}
	for i := 0; i < n; i++ {
		if rowPtr[i+1] < rowPtr[i] {
			return nil, fmt.Errorf("graph: rowPtr decreases at %d (%d -> %d)", i, rowPtr[i], rowPtr[i+1])
		}
	}
	if rowPtr[n] != int64(len(adj)) {
		return nil, fmt.Errorf("graph: rowPtr[n] = %d but len(adj) = %d", rowPtr[n], len(adj))
	}
	if len(adj)%2 != 0 {
		return nil, fmt.Errorf("graph: odd entry count %d cannot be symmetric", len(adj))
	}
	if w32 != nil && w64 != nil {
		return nil, fmt.Errorf("graph: both float32 and float64 weights present")
	}
	if w32 != nil && len(w32) != len(adj) {
		return nil, fmt.Errorf("graph: len(w32) = %d but len(adj) = %d", len(w32), len(adj))
	}
	if w64 != nil && len(w64) != len(adj) {
		return nil, fmt.Errorf("graph: len(w64) = %d but len(adj) = %d", len(w64), len(adj))
	}
	derive := deg == nil
	if derive {
		deg = make([]float64, n)
	} else if len(deg) != n {
		return nil, fmt.Errorf("graph: len(deg) = %d but n = %d", len(deg), n)
	}
	g := &Graph{
		kind: kind, n: n, m: len(adj) / 2,
		rowPtr: rowPtr, adj: adj, w32: w32, w64: w64, deg: deg,
		closer: closer,
	}
	if err := g.validate(derive); err != nil {
		return nil, err
	}
	for _, d := range deg {
		g.volume += d
	}
	return g, nil
}

// weightAt returns the weight of adjacency entry k in full precision.
func (g *Graph) weightAt(k int64) float64 {
	switch {
	case g.w64 != nil:
		return g.w64[k]
	case g.w32 != nil:
		return float64(g.w32[k])
	default:
		return 1
	}
}

// validate checks the CSR invariants (rows strictly ascending with no
// self-loops, weights positive and finite, exact symmetry) and that deg
// matches the row-order accumulation bit-for-bit, or, when derive is
// set, stores that accumulation as deg.
func (g *Graph) validate(derive bool) error {
	pairs := 0
	for u := 0; u < g.n; u++ {
		prev := int64(-1)
		var du float64
		for k := g.rowPtr[u]; k < g.rowPtr[u+1]; k++ {
			v := int64(g.adj[k])
			if v >= int64(g.n) {
				return fmt.Errorf("graph: neighbor %d of node %d out of range [0,%d)", v, u, g.n)
			}
			if v == int64(u) {
				return fmt.Errorf("graph: self-loop at node %d", u)
			}
			if v <= prev {
				return fmt.Errorf("graph: row %d not strictly ascending at entry %d", u, k-g.rowPtr[u])
			}
			prev = v
			wt := g.weightAt(k)
			if wt <= 0 || math.IsNaN(wt) || math.IsInf(wt, 0) {
				return fmt.Errorf("graph: edge (%d,%d) has invalid weight %v", u, v, wt)
			}
			du += wt
			if int64(u) < v {
				mw, ok := g.findEdge(int(v), u)
				if !ok || mw != wt {
					return fmt.Errorf("graph: edge (%d,%d) weight %v has no symmetric mirror", u, v, wt)
				}
				pairs++
			}
		}
		if derive {
			g.deg[u] = du
		} else if math.Float64bits(du) != math.Float64bits(g.deg[u]) {
			return fmt.Errorf("graph: stored degree %v of node %d disagrees with its row (recomputed %v)", g.deg[u], u, du)
		}
	}
	if 2*pairs != len(g.adj) {
		return fmt.Errorf("graph: %d upper-triangle edges cannot cover %d entries", pairs, len(g.adj))
	}
	return nil
}

// findEdge locates edge {u,v} in u's (sorted) row.
func (g *Graph) findEdge(u, v int) (float64, bool) {
	lo, hi := g.rowPtr[u], g.rowPtr[u+1]
	row := g.adj[lo:hi]
	k := sort.Search(len(row), func(i int) bool { return row[i] >= uint32(v) })
	if k < len(row) && row[k] == uint32(v) {
		return g.weightAt(lo + int64(k)), true
	}
	return 0, false
}

// NeighborIter is a by-value cursor over one node's adjacency row.
// The zero value is an exhausted iterator. It is exactly one row's
// slices plus a position — copying it is cheap and restarts nothing.
type NeighborIter struct {
	adj32 []uint32
	// At most one of w64/w32 is non-nil; both nil means unit weights.
	w64 []float64
	w32 []float32
	i   int
	// pin keeps the backing Graph reachable while the cursor lives:
	// a mapped graph's row slices point into non-GC memory, so without
	// this reference the collector could finalize (unmap) the graph
	// between the caller's last use of it and the cursor's last Next.
	pin *Graph
}

// Next returns the next neighbor and its edge weight, advancing the
// cursor; ok is false when the row is exhausted.
func (it *NeighborIter) Next() (v int, w float64, ok bool) {
	i := it.i
	if i >= len(it.adj32) {
		return 0, 0, false
	}
	it.i = i + 1
	w = 1
	if it.w64 != nil {
		w = it.w64[i]
	} else if it.w32 != nil {
		w = float64(it.w32[i])
	}
	return int(it.adj32[i]), w, true
}
