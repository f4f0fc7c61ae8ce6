package partition

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/gstore"
	"repro/internal/spectral"
)

// SpectralResult is the outcome of the global spectral partitioner.
type SpectralResult struct {
	Set         []int   // smaller-volume side of the cut
	Conductance float64 // φ of the cut
	Lambda2     float64 // leading nontrivial eigenvalue of 𝓛
	// CheegerUpper is √(2λ₂), the guarantee the sweep cut must meet.
	CheegerUpper float64
}

// Spectral runs the global spectral partitioning algorithm of §3.2:
// compute the Fiedler vector of the normalized Laplacian, embed the
// nodes on the line via the generalized eigenvector D^{-1/2}v₂, and
// return the best sweep cut. By Cheeger's inequality the result is
// "quadratically good": φ(sweep) ≤ √(2·λ₂) ≤ 2·√(φ(G)).
func Spectral(g *graph.Graph, opt spectral.FiedlerOptions) (*SpectralResult, error) {
	fr, err := spectral.Fiedler(g, opt)
	if err != nil {
		return nil, fmt.Errorf("partition: spectral: %w", err)
	}
	sw, err := SweepCut(g, fr.Embedding)
	if err != nil {
		return nil, fmt.Errorf("partition: spectral sweep: %w", err)
	}
	set := smallerSide(g, sw.Set)
	return &SpectralResult{
		Set:          set,
		Conductance:  sw.Conductance,
		Lambda2:      fr.Lambda2,
		CheegerUpper: spectral.Lambda2UpperBoundCheeger(fr.Lambda2),
	}, nil
}

// smallerSide returns whichever of set / complement has smaller volume,
// as a sorted node list.
func smallerSide(g *graph.Graph, set []int) []int {
	inS := g.Membership(set)
	if g.VolumeOf(inS) <= g.Volume()/2 {
		out := append([]int(nil), set...)
		sortInts(out)
		return out
	}
	return graph.SetOf(graph.Complement(inS))
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j-1] > s[j]; j-- {
			s[j-1], s[j] = s[j], s[j-1]
		}
	}
}

// BFSGrow returns the best sweep cut over the BFS order from the given
// source — a cheap geodesic baseline ("grow a ball until the boundary is
// thin").
func BFSGrow(g *graph.Graph, src int) (*SweepResult, error) {
	if src < 0 || src >= g.N() {
		return nil, fmt.Errorf("partition: BFSGrow source %d out of range [0,%d)", src, g.N())
	}
	dist := g.BFS(src)
	var nodes []int
	for u, d := range dist {
		if d >= 0 {
			nodes = append(nodes, u)
		}
	}
	sort.Slice(nodes, func(a, b int) bool {
		if dist[nodes[a]] != dist[nodes[b]] {
			return dist[nodes[a]] < dist[nodes[b]]
		}
		return nodes[a] < nodes[b]
	})
	return SweepCutOrdered(gstore.Wrap(g), nodes, len(nodes))
}
