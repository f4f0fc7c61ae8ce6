// Inside internal/graph the package owns the arrays; the analyzer
// must stay silent however the storage is touched.
package fixture

import "repro/internal/graph"

func Mutate(g *graph.Graph) {
	g.Degrees()[0] = 1
	adj := g.RawAdj()
	adj[0] = 2
}
