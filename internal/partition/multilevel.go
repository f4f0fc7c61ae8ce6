package partition

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/flow"
	"repro/internal/graph"
)

// MultilevelOptions configures the multilevel bisection.
type MultilevelOptions struct {
	// CoarsestSize stops coarsening once the graph has at most this many
	// nodes (default 40).
	CoarsestSize int
	// BalanceFraction is the minimum fraction of total node weight each
	// side must keep (default 0.25).
	BalanceFraction float64
	// RefinePasses caps the FM refinement passes per level (default 8).
	RefinePasses int
	// Seed drives the randomized matching and initial partition (0 → 1).
	Seed int64
	// OnProgress, when set, is called by RecursiveBisectCtx after each
	// completed split with (splits done, splits planned); a k-way
	// partition plans k-1 splits. Single bisections never call it. The
	// hook must be cheap and must not panic; it has no effect on the
	// partition itself.
	OnProgress func(done, total int)
}

func (o *MultilevelOptions) withDefaults() MultilevelOptions {
	out := *o
	if out.CoarsestSize <= 1 {
		out.CoarsestSize = 40
	}
	if out.BalanceFraction <= 0 || out.BalanceFraction >= 0.5 {
		out.BalanceFraction = 0.25
	}
	if out.RefinePasses <= 0 {
		out.RefinePasses = 8
	}
	if out.Seed == 0 {
		out.Seed = 1
	}
	return out
}

// MultilevelResult is a bisection produced by the multilevel partitioner.
type MultilevelResult struct {
	InS         []bool  // membership of side S
	CutWeight   float64 // total weight of cut edges
	Conductance float64 // φ of the bisection
	Levels      int     // number of coarsening levels used
}

// level is one rung of the coarsening hierarchy.
type level struct {
	g       *graph.Graph
	nodeW   []float64 // node weights (number of original nodes merged in)
	coarser []int     // map from this level's nodes to the coarser level's
}

// MultilevelBisect runs the Metis-style multilevel heuristic: coarsen by
// heavy-edge matching, cut the coarsest graph greedily, then uncoarsen
// with Fiduccia–Mattheyses boundary refinement at every level. It is the
// stand-in for Metis in the paper's "Metis+MQI" flow-based pipeline (see
// DESIGN.md's substitution table).
func MultilevelBisect(g *graph.Graph, opt MultilevelOptions) (*MultilevelResult, error) {
	o := (&opt).withDefaults()
	if g.N() < 2 {
		return nil, errors.New("partition: multilevel bisect needs at least 2 nodes")
	}
	rng := rand.New(rand.NewSource(o.Seed))

	// Build the hierarchy.
	levels := []*level{{g: g, nodeW: ones(g.N())}}
	for {
		cur := levels[len(levels)-1]
		if cur.g.N() <= o.CoarsestSize {
			break
		}
		next, mapping, ok := coarsen(cur, rng)
		if !ok {
			break // matching made no progress (e.g. star graphs)
		}
		cur.coarser = mapping
		levels = append(levels, next)
	}

	// Initial partition on the coarsest level.
	coarsest := levels[len(levels)-1]
	inS := greedyGrowBisect(coarsest, o.BalanceFraction, rng)

	// Uncoarsen with refinement.
	for li := len(levels) - 1; li >= 0; li-- {
		lv := levels[li]
		refineFM(lv, inS, o.BalanceFraction, o.RefinePasses)
		if li > 0 {
			finer := levels[li-1]
			fine := make([]bool, finer.g.N())
			for u := 0; u < finer.g.N(); u++ {
				fine[u] = inS[finer.coarser[u]]
			}
			inS = fine
		}
	}
	cut := g.Cut(inS)
	return &MultilevelResult{
		InS:         inS,
		CutWeight:   cut,
		Conductance: g.Conductance(inS),
		Levels:      len(levels),
	}, nil
}

func ones(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// coarsen performs one heavy-edge-matching contraction. It returns the
// coarser level, the fine→coarse mapping, and whether the contraction
// reduced the node count.
func coarsen(lv *level, rng *rand.Rand) (*level, []int, bool) {
	g := lv.g
	n := g.N()
	match := make([]int, n)
	for i := range match {
		match[i] = -1
	}
	order := rng.Perm(n)
	for _, u := range order {
		if match[u] >= 0 {
			continue
		}
		nbrs, ws := g.Neighbors(u)
		best, bestW := -1, -1.0
		for i, v := range nbrs {
			if match[v] < 0 && v != u && ws[i] > bestW {
				best, bestW = v, ws[i]
			}
		}
		if best >= 0 {
			match[u] = best
			match[best] = u
		} else {
			match[u] = u // self-matched (stays single)
		}
	}
	// Assign coarse ids.
	coarseID := make([]int, n)
	for i := range coarseID {
		coarseID[i] = -1
	}
	next := 0
	for u := 0; u < n; u++ {
		if coarseID[u] >= 0 {
			continue
		}
		coarseID[u] = next
		if match[u] != u {
			coarseID[match[u]] = next
		}
		next++
	}
	if next >= n {
		return nil, nil, false
	}
	b := graph.NewBuilder(next)
	nodeW := make([]float64, next)
	for u := 0; u < n; u++ {
		nodeW[coarseID[u]] += lv.nodeW[u]
	}
	g.Edges(func(u, v int, w float64) {
		cu, cv := coarseID[u], coarseID[v]
		if cu != cv {
			b.AddWeightedEdge(cu, cv, w)
		}
	})
	cg, err := b.Build()
	if err != nil {
		return nil, nil, false // cannot happen with valid ids; treated as no progress
	}
	return &level{g: cg, nodeW: nodeW}, coarseID, true
}

// greedyGrowBisect grows a region from a random node by repeatedly
// absorbing the frontier node with the highest connection-to-S weight
// until S holds roughly half the node weight.
func greedyGrowBisect(lv *level, balanceFrac float64, rng *rand.Rand) []bool {
	g := lv.g
	n := g.N()
	totalW := 0.0
	for _, w := range lv.nodeW {
		totalW += w
	}
	target := totalW / 2
	inS := make([]bool, n)
	gain := make([]float64, n)
	start := rng.Intn(n)
	inS[start] = true
	grown := lv.nodeW[start]
	nbrs, ws := g.Neighbors(start)
	for i, v := range nbrs {
		gain[v] += ws[i]
	}
	for grown < target {
		best, bestGain := -1, math.Inf(-1)
		for v := 0; v < n; v++ {
			if !inS[v] && gain[v] > bestGain {
				best, bestGain = v, gain[v]
			}
		}
		if best < 0 {
			break
		}
		if bestGain <= 0 {
			// Frontier exhausted (disconnected remainder): jump to any
			// unassigned node.
			for v := 0; v < n; v++ {
				if !inS[v] {
					best = v
					break
				}
			}
		}
		inS[best] = true
		grown += lv.nodeW[best]
		nbrs, ws := g.Neighbors(best)
		for i, v := range nbrs {
			gain[v] += ws[i]
		}
	}
	// Guard against degenerate all-in-S outcomes.
	count := 0
	for _, in := range inS {
		if in {
			count++
		}
	}
	if count == n {
		inS[rng.Intn(n)] = false
	}
	_ = balanceFrac
	return inS
}

// refineFM runs Fiduccia–Mattheyses-style passes: repeatedly move the
// boundary node with the best cut-weight gain to the other side, subject
// to the balance constraint, accepting the best prefix of moves per pass.
func refineFM(lv *level, inS []bool, balanceFrac float64, maxPasses int) {
	g := lv.g
	n := g.N()
	totalW := 0.0
	for _, w := range lv.nodeW {
		totalW += w
	}
	minSide := balanceFrac * totalW
	weightS := 0.0
	for u := 0; u < n; u++ {
		if inS[u] {
			weightS += lv.nodeW[u]
		}
	}
	for pass := 0; pass < maxPasses; pass++ {
		// gain[u] = (cut weight removed) − (cut weight added) if u moves.
		gain := make([]float64, n)
		for u := 0; u < n; u++ {
			nbrs, ws := g.Neighbors(u)
			for i, v := range nbrs {
				if inS[v] != inS[u] {
					gain[u] += ws[i]
				} else {
					gain[u] -= ws[i]
				}
			}
		}
		locked := make([]bool, n)
		type move struct {
			u        int
			cumGain  float64
			balanced bool
		}
		var moves []move
		var cum float64
		curWeightS := weightS
		for step := 0; step < n; step++ {
			best, bestGain := -1, math.Inf(-1)
			for u := 0; u < n; u++ {
				if !locked[u] && gain[u] > bestGain {
					best, bestGain = u, gain[u]
				}
			}
			if best < 0 {
				break
			}
			// Tentatively move best.
			locked[best] = true
			if inS[best] {
				curWeightS -= lv.nodeW[best]
			} else {
				curWeightS += lv.nodeW[best]
			}
			inS[best] = !inS[best]
			cum += bestGain
			balanced := curWeightS >= minSide && totalW-curWeightS >= minSide
			moves = append(moves, move{best, cum, balanced})
			// Update neighbor gains.
			nbrs, ws := g.Neighbors(best)
			for i, v := range nbrs {
				if locked[v] {
					continue
				}
				if inS[v] == inS[best] {
					gain[v] -= 2 * ws[i]
				} else {
					gain[v] += 2 * ws[i]
				}
			}
			gain[best] = -gain[best]
		}
		// Find the best balanced prefix with positive cumulative gain.
		bestPrefix, bestCum := 0, 0.0
		for i, m := range moves {
			if m.balanced && m.cumGain > bestCum+1e-12 {
				bestPrefix, bestCum = i+1, m.cumGain
			}
		}
		// Roll back moves beyond the chosen prefix.
		for i := len(moves) - 1; i >= bestPrefix; i-- {
			u := moves[i].u
			inS[u] = !inS[u]
		}
		// Recompute weightS.
		weightS = 0
		for u := 0; u < n; u++ {
			if inS[u] {
				weightS += lv.nodeW[u]
			}
		}
		if bestPrefix == 0 {
			return // no improving balanced prefix: converged
		}
	}
}

// MetisMQI runs the paper's flow-based pipeline: multilevel bisection
// followed by MQI improvement of the smaller side. This is the "red"
// algorithm of Figure 1.
func MetisMQI(g *graph.Graph, opt MultilevelOptions) (*flow.MQIResult, error) {
	bi, err := MultilevelBisect(g, opt)
	if err != nil {
		return nil, fmt.Errorf("partition: MetisMQI bisect: %w", err)
	}
	res, err := flow.ImproveBothSides(g, bi.InS)
	if err != nil {
		return nil, fmt.Errorf("partition: MetisMQI improve: %w", err)
	}
	return res, nil
}

// RecursiveBisectCtx partitions the graph into k parts by recursive
// multilevel bisection, splitting the largest remaining part each round.
// It returns a part label per node. ctx is checked before every split,
// so a long k-way partition driven from a serving layer can be
// cancelled between bisections.
func RecursiveBisectCtx(ctx context.Context, g *graph.Graph, k int, opt MultilevelOptions) ([]int, error) {
	if k < 1 {
		return nil, fmt.Errorf("partition: k=%d must be >= 1", k)
	}
	labels := make([]int, g.N())
	if k == 1 {
		return labels, nil
	}
	type part struct {
		nodes []int
	}
	parts := []part{{nodes: allNodes(g.N())}}
	seed := (&opt).withDefaults().Seed
	for len(parts) < k {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Split the largest part.
		idx := 0
		for i := range parts {
			if len(parts[i].nodes) > len(parts[idx].nodes) {
				idx = i
			}
		}
		p := parts[idx]
		if len(p.nodes) < 2 {
			break
		}
		sg, mapping, err := g.Subgraph(p.nodes)
		if err != nil {
			return nil, fmt.Errorf("partition: RecursiveBisect subgraph: %w", err)
		}
		seed++
		sub := opt
		sub.Seed = seed
		bi, err := MultilevelBisect(sg, sub)
		if err != nil {
			return nil, fmt.Errorf("partition: RecursiveBisect split: %w", err)
		}
		var a, b []int
		for i, in := range bi.InS {
			if in {
				a = append(a, mapping[i])
			} else {
				b = append(b, mapping[i])
			}
		}
		if len(a) == 0 || len(b) == 0 {
			break // unsplittable (e.g. singleton); stop early
		}
		parts[idx] = part{nodes: a}
		parts = append(parts, part{nodes: b})
		if opt.OnProgress != nil {
			opt.OnProgress(len(parts)-1, k-1)
		}
	}
	for label, p := range parts {
		for _, u := range p.nodes {
			labels[u] = label
		}
	}
	return labels, nil
}

func allNodes(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// PartSets converts part labels into explicit node lists, sorted by part
// id.
func PartSets(labels []int) [][]int {
	maxL := -1
	for _, l := range labels {
		if l > maxL {
			maxL = l
		}
	}
	sets := make([][]int, maxL+1)
	for u, l := range labels {
		sets[l] = append(sets[l], u)
	}
	for _, s := range sets {
		sort.Ints(s)
	}
	return sets
}
