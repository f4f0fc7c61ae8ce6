// Package flow implements the flow-based partitioning substrate of §3.2:
// a Dinic max-flow solver, s–t min-cut extraction, and the MQI
// (Max-flow Quotient-cut Improvement) procedure of Lang–Rao that the
// paper's Figure 1 uses (as "Metis+MQI") as its flow-based partitioner.
package flow

import (
	"errors"
	"fmt"
	"math"
)

// Network is a directed flow network with float64 capacities. Arcs are
// stored in pairs: arc i and its reverse arc i^1.
type Network struct {
	n     int
	head  [][]int32 // adjacency: arc indices per node
	to    []int32
	cap   []float64
	level []int32
	iter  []int
}

// NewNetwork returns an empty flow network with n nodes.
func NewNetwork(n int) *Network {
	if n < 0 {
		panic(fmt.Sprintf("flow: negative node count %d", n))
	}
	return &Network{n: n, head: make([][]int32, n)}
}

// AddArc adds a directed arc u→v with the given capacity (and a reverse
// arc of capacity 0). It returns an error for invalid endpoints or
// capacities.
func (f *Network) AddArc(u, v int, capacity float64) error {
	return f.addArcPair(u, v, capacity, 0)
}

// AddEdge adds an undirected edge: arcs in both directions, each with the
// full capacity.
func (f *Network) AddEdge(u, v int, capacity float64) error {
	return f.addArcPair(u, v, capacity, capacity)
}

func (f *Network) addArcPair(u, v int, capFwd, capRev float64) error {
	if u < 0 || u >= f.n || v < 0 || v >= f.n {
		return fmt.Errorf("flow: arc (%d,%d) out of range [0,%d)", u, v, f.n)
	}
	if u == v {
		return fmt.Errorf("flow: self-arc at node %d", u)
	}
	if capFwd < 0 || capRev < 0 || math.IsNaN(capFwd) || math.IsNaN(capRev) {
		return fmt.Errorf("flow: invalid capacities (%v, %v) on arc (%d,%d)", capFwd, capRev, u, v)
	}
	f.head[u] = append(f.head[u], int32(len(f.to)))
	f.to = append(f.to, int32(v))
	f.cap = append(f.cap, capFwd)
	f.head[v] = append(f.head[v], int32(len(f.to)))
	f.to = append(f.to, int32(u))
	f.cap = append(f.cap, capRev)
	return nil
}

// eps is the tolerance below which residual capacity is treated as zero;
// capacities in this package come from sums of edge weights, so absolute
// comparison is adequate.
const eps = 1e-9

func (f *Network) bfs(s, t int) bool {
	if f.level == nil {
		f.level = make([]int32, f.n)
	}
	for i := range f.level {
		f.level[i] = -1
	}
	f.level[s] = 0
	queue := make([]int32, 0, f.n)
	queue = append(queue, int32(s))
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, ai := range f.head[u] {
			v := f.to[ai]
			if f.cap[ai] > eps && f.level[v] < 0 {
				f.level[v] = f.level[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return f.level[t] >= 0
}

func (f *Network) dfs(u, t int, pushed float64) float64 {
	if u == t {
		return pushed
	}
	for ; f.iter[u] < len(f.head[u]); f.iter[u]++ {
		ai := f.head[u][f.iter[u]]
		v := f.to[ai]
		if f.cap[ai] > eps && f.level[v] == f.level[u]+1 {
			d := f.dfs(int(v), t, math.Min(pushed, f.cap[ai]))
			if d > eps {
				f.cap[ai] -= d
				f.cap[ai^1] += d
				return d
			}
		}
	}
	return 0
}

// MaxFlow computes the maximum s–t flow with Dinic's algorithm, consuming
// the network's capacities (the Network afterwards holds the residual
// graph, which MinCutSide reads).
func (f *Network) MaxFlow(s, t int) (float64, error) {
	if s < 0 || s >= f.n || t < 0 || t >= f.n {
		return 0, fmt.Errorf("flow: terminals (%d,%d) out of range [0,%d)", s, t, f.n)
	}
	if s == t {
		return 0, errors.New("flow: source equals sink")
	}
	if f.iter == nil {
		f.iter = make([]int, f.n)
	}
	var total float64
	for f.bfs(s, t) {
		for i := range f.iter {
			f.iter[i] = 0
		}
		for {
			d := f.dfs(s, t, math.Inf(1))
			if d <= eps {
				break
			}
			total += d
		}
	}
	return total, nil
}

// MinCutSide returns, after MaxFlow, the membership slice of the source
// side of a minimum s–t cut: nodes reachable from s in the residual
// graph.
func (f *Network) MinCutSide(s int) ([]bool, error) {
	if s < 0 || s >= f.n {
		return nil, fmt.Errorf("flow: source %d out of range [0,%d)", s, f.n)
	}
	side := make([]bool, f.n)
	side[s] = true
	queue := []int{s}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, ai := range f.head[u] {
			v := int(f.to[ai])
			if f.cap[ai] > eps && !side[v] {
				side[v] = true
				queue = append(queue, v)
			}
		}
	}
	return side, nil
}
