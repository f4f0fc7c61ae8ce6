package graph

import "fmt"

// BFS returns the hop-distance (unweighted shortest path length) from src
// to every node, with -1 for unreachable nodes.
func (g *Graph) BFS(src int) []int {
	if src < 0 || src >= g.n {
		panic(fmt.Sprintf("graph: BFS source %d out of range [0,%d)", src, g.n))
	}
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		it := g.Neighbors(u)
		for v, _, ok := it.Next(); ok; v, _, ok = it.Next() {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// ConnectedComponents returns a component label per node (labels are
// 0-based and dense) and the number of components.
func (g *Graph) ConnectedComponents() ([]int, int) {
	comp := make([]int, g.n)
	for i := range comp {
		comp[i] = -1
	}
	next := 0
	var queue []int
	for s := 0; s < g.n; s++ {
		if comp[s] >= 0 {
			continue
		}
		comp[s] = next
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			it := g.Neighbors(u)
			for v, _, ok := it.Next(); ok; v, _, ok = it.Next() {
				if comp[v] < 0 {
					comp[v] = next
					queue = append(queue, v)
				}
			}
		}
		next++
	}
	return comp, next
}

// IsConnected reports whether the graph is connected. The empty graph is
// considered connected.
func (g *Graph) IsConnected() bool {
	if g.n == 0 {
		return true
	}
	_, c := g.ConnectedComponents()
	return c == 1
}

// Subgraph extracts the induced subgraph on the given node list. It
// returns the subgraph and the mapping from new node index to original
// node index. Duplicate nodes in the list are an error.
func (g *Graph) Subgraph(nodes []int) (*Graph, []int, error) {
	newIdx := make(map[int]int, len(nodes))
	for i, u := range nodes {
		if u < 0 || u >= g.n {
			return nil, nil, fmt.Errorf("graph: Subgraph node %d out of range [0,%d)", u, g.n)
		}
		if _, dup := newIdx[u]; dup {
			return nil, nil, fmt.Errorf("graph: Subgraph duplicate node %d", u)
		}
		newIdx[u] = i
	}
	b := NewBuilder(len(nodes))
	for i, u := range nodes {
		it := g.Neighbors(u)
		for v, w, ok := it.Next(); ok; v, w, ok = it.Next() {
			if j, in := newIdx[v]; in && i < j {
				b.AddWeightedEdge(i, j, w)
			}
		}
	}
	sg, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	mapping := make([]int, len(nodes))
	copy(mapping, nodes)
	return sg, mapping, nil
}
