// Package partition implements the graph partitioning algorithms of
// §3.2: the spectral partitioner (Fiedler vector + sweep cut, with its
// quadratic Cheeger guarantee), a multilevel "Metis-like" partitioner
// (heavy-edge matching coarsening + greedy initial cut + FM refinement),
// the Metis+MQI flow pipeline that Figure 1 uses as its flow-based
// method, and naive baselines.
package partition

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/gstore"
)

// SweepResult is the best prefix cut found by a sweep over an embedding.
type SweepResult struct {
	Set         []int   // nodes of the best sweep set (smaller-volume side not guaranteed)
	Conductance float64 // φ of that set
	Prefix      int     // number of nodes in the prefix
}

// SweepCut sorts nodes by the embedding values (descending) and returns
// the best-conductance prefix set. This is the rounding step shared by
// every spectral method in the paper: relax, embed on a line, cut.
//
// The incremental evaluation makes the whole sweep O(m + n log n).
func SweepCut(g *graph.Graph, embedding []float64) (*SweepResult, error) {
	n := g.N()
	if len(embedding) != n {
		return nil, fmt.Errorf("partition: embedding length %d != %d nodes", len(embedding), n)
	}
	if n < 2 {
		return nil, errors.New("partition: sweep cut needs at least 2 nodes")
	}
	return sweepOverOrder(gstore.Wrap(g), embeddingOrder(embedding), n-1)
}

// embeddingOrder returns all nodes sorted by embedding value descending,
// with node id as an explicit tiebreak: equal scores always sweep in
// ascending-id order, so the sweep output can never depend on the sort
// algorithm's treatment of ties (sort.Slice is not stable) or on the
// floating-point provenance of the embedding.
func embeddingOrder(embedding []float64) []int {
	order := make([]int, len(embedding))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ea, eb := embedding[order[a]], embedding[order[b]]
		if ea != eb {
			return ea > eb
		}
		return order[a] < order[b]
	})
	return order
}

// SweepCutOrdered runs the sweep over an explicit node order (e.g. the
// support of a sparse diffusion vector sorted by probability-per-degree).
// Only the first maxPrefix prefixes are considered. It accepts any
// storage backend: the per-query sweep path serves compact and mapped
// graphs without materializing a heap copy.
func SweepCutOrdered(g gstore.Graph, order []int, maxPrefix int) (*SweepResult, error) {
	if len(order) == 0 {
		return nil, errors.New("partition: empty sweep order")
	}
	// Support-sized map, not a []bool: the order is typically a small
	// diffusion support and this path runs per query (and per Nibble
	// step), so the dup check must stay O(len(order)), not O(n).
	seen := make(map[int]bool, len(order))
	for _, u := range order {
		if u < 0 || u >= g.N() {
			return nil, fmt.Errorf("partition: sweep node %d out of range [0,%d)", u, g.N())
		}
		if seen[u] {
			return nil, fmt.Errorf("partition: duplicate node %d in sweep order", u)
		}
		seen[u] = true
	}
	if maxPrefix > len(order) {
		maxPrefix = len(order)
	}
	if maxPrefix > g.N()-1 {
		maxPrefix = g.N() - 1
	}
	if maxPrefix < 1 {
		return nil, errors.New("partition: nothing to sweep")
	}
	return sweepOverOrder(g, order, maxPrefix)
}

func sweepOverOrder(g gstore.Graph, order []int, maxPrefix int) (*SweepResult, error) {
	inS := make([]bool, g.N())
	var cut, volS float64
	volume := g.Volume()
	best := math.Inf(1)
	bestPrefix := 0
	for k := 0; k < maxPrefix; k++ {
		u := order[k]
		// Adding u: its edges to S stop being cut edges; edges to the
		// complement become cut edges. The iterator walks the row in
		// CSR order, so the float accumulation matches the heap path.
		it := g.Neighbors(u)
		for v, w, ok := it.Next(); ok; v, w, ok = it.Next() {
			if inS[v] {
				cut -= w
			} else {
				cut += w
			}
		}
		inS[u] = true
		volS += g.Degree(u)
		denom := math.Min(volS, volume-volS)
		if denom <= 0 {
			continue
		}
		if phi := cut / denom; phi < best {
			best = phi
			bestPrefix = k + 1
		}
	}
	if bestPrefix == 0 {
		return nil, errors.New("partition: sweep found no valid cut")
	}
	set := make([]int, bestPrefix)
	copy(set, order[:bestPrefix])
	return &SweepResult{Set: set, Conductance: best, Prefix: bestPrefix}, nil
}
