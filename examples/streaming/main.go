// Streaming / dynamic / batch PageRank: the Section 3.3 database-
// environment primitives working together on one evolving network.
//
//  1. Estimate global PageRank over a multi-pass edge stream (never
//     holding the graph in random-access form) and compare against the
//     in-memory iterative solution.
//  2. Maintain a Personalized PageRank vector incrementally while edges
//     arrive and depart, without recomputation.
//  3. Answer "related nodes" queries for a batch of sources with the
//     worker-pool push primitive.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/diffusion"
	"repro/internal/gen"
	"repro/internal/stream"
	"repro/internal/vec"
)

func main() {
	rng := rand.New(rand.NewSource(7))

	// A ring of cliques: obvious communities, so the PPR results are easy
	// to eyeball.
	g := gen.RingOfCliques(6, 8) // 48 nodes: clique k = nodes 8k..8k+7
	fmt.Printf("graph: n=%d m=%d (6 cliques of 8 in a ring)\n\n", g.N(), g.M())

	// --- 1. PageRank over an edge stream -------------------------------
	gamma := 0.2
	st := stream.StreamOf(g, rng)
	mc, err := stream.StreamPageRank(st, stream.PageRankOptions{
		Walks: 40000, Gamma: gamma, MaxSteps: 200,
	}, rng)
	if err != nil {
		log.Fatalf("stream pagerank: %v", err)
	}

	uniform := make([]float64, g.N())
	for i := range uniform {
		uniform[i] = 1 / float64(g.N())
	}
	exact, err := diffusion.PageRank(g, uniform, gamma, diffusion.PageRankOptions{})
	if err != nil {
		log.Fatalf("iterative pagerank: %v", err)
	}
	fmt.Printf("streaming estimate after %d passes (40k walks):\n", mc.Passes)
	fmt.Printf("  L1 distance to iterative solution: %.4f\n", vec.Norm1(vec.Sub(mc.Scores, exact)))
	fmt.Printf("  (walks capped at pass budget: %d)\n\n", mc.WalksCapped)

	// --- 2. incremental PPR on an evolving graph -----------------------
	dg, err := stream.NewDynamicGraph(g.N())
	if err != nil {
		log.Fatal(err)
	}
	ppr, err := stream.NewIncrementalPPR(dg, 0, gamma, 4000, rng)
	if err != nil {
		log.Fatalf("incremental ppr: %v", err)
	}
	// Insert the whole graph edge by edge, as a social network would grow.
	var edges []stream.Edge
	g.Edges(func(u, v int, w float64) { edges = append(edges, stream.Edge{U: u, V: v, W: w}) })
	for _, e := range edges {
		if err := ppr.AddEdge(e.U, e.V, e.W); err != nil {
			log.Fatal(err)
		}
	}
	est := ppr.Estimate()
	var ownClique float64
	for u := 0; u < 8; u++ {
		ownClique += est[u]
	}
	fmt.Printf("incremental PPR from node 0 after %d insertions (%d suffix redraws):\n",
		len(edges), ppr.Resampled())
	fmt.Printf("  mass on node 0's own clique: %.3f\n", ownClique)

	// Now cut node 0's clique off from the ring on one side and watch the
	// mass shift further into the clique.
	bridgeU, bridgeV := findBridge(g)
	if err := ppr.RemoveEdge(bridgeU, bridgeV); err != nil {
		log.Fatal(err)
	}
	est = ppr.Estimate()
	ownClique = 0
	for u := 0; u < 8; u++ {
		ownClique += est[u]
	}
	fmt.Printf("  after deleting ring edge (%d,%d): clique mass %.3f\n\n", bridgeU, bridgeV, ownClique)

	// --- 3. batch PPR on the kernel batch engine ------------------------
	// BatchPersonalizedPageRank rides kernel.BatchDiffuser: sources are
	// diffused one per pooled workspace across workers, byte-identical
	// to running each source alone.
	sources := []int{0, 8, 16, 24, 32, 40} // one per clique
	batch, err := stream.BatchPersonalizedPageRank(g, sources, stream.BatchPPROptions{
		Alpha: 0.15, Eps: 1e-5, Workers: 4,
	})
	if err != nil {
		log.Fatalf("batch ppr: %v", err)
	}
	fmt.Printf("batch PPR for %d sources (total push work %.0f):\n", len(sources), batch.TotalWork)
	for i, s := range batch.Sources {
		top := stream.TopK(batch.Vectors[i], 4)
		fmt.Printf("  source %2d: top related nodes %v (its own clique: %d..%d)\n",
			s, top, s, s+7)
	}
}

// findBridge returns one inter-clique ring edge incident to clique 0.
func findBridge(g interface {
	Edges(func(u, v int, w float64))
}) (int, int) {
	bu, bv := -1, -1
	g.Edges(func(u, v int, w float64) {
		if bu >= 0 {
			return
		}
		inA := u < 8
		inB := v < 8
		if inA != inB {
			bu, bv = u, v
		}
	})
	return bu, bv
}
