// Package ncp implements the Network Community Profile machinery behind
// Figure 1 of the paper (after Leskovec–Lang–Dasgupta–Mahoney [27, 28]):
// multi-scale cluster sampling with a spectral/local method (blue) and a
// flow-based Metis+MQI method (red), size-resolved minimum conductance,
// and the two cluster "niceness" measures of Fig. 1(b) and 1(c) —
// average shortest-path length inside the cluster and the ratio of
// external to internal conductance.
package ncp

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/spectral"
)

// Measures holds the quality and niceness statistics of one cluster.
// Lower is better for Conductance (Fig. 1a), AvgPathLen (Fig. 1b) and
// ExtIntRatio (Fig. 1c).
type Measures struct {
	Size        int     // number of nodes
	Volume      float64 // vol(S) in the host graph
	Conductance float64 // φ(S): the objective of Fig. 1(a)
	// AvgPathLen is the mean shortest-path length inside the induced
	// subgraph (Fig. 1(b)): compact, well-connected clusters score low.
	AvgPathLen float64
	// InternalConductance is the minimum conductance of the induced
	// subgraph — how hard the cluster is to cut internally. Disconnected
	// clusters score 0.
	InternalConductance float64
	// ExtIntRatio is Conductance / InternalConductance (Fig. 1(c)):
	// low when the cluster is well separated outside and cohesive inside.
	ExtIntRatio float64
	// Density is the internal edge density 2m_S/(|S|(|S|−1)).
	Density float64
	// Diameter of the induced subgraph (largest finite eccentricity).
	Diameter int
}

// Evaluate computes all cluster measures for the node set. The internal
// conductance uses exhaustive search for subgraphs with ≤ 12 nodes and
// the spectral sweep otherwise, matching how [28] approximates it.
func Evaluate(g *graph.Graph, nodes []int) (*Measures, error) {
	if len(nodes) == 0 {
		return nil, errors.New("ncp: empty cluster")
	}
	if len(nodes) == g.N() {
		return nil, errors.New("ncp: cluster is the whole graph")
	}
	m := &Measures{Size: len(nodes)}
	inS := g.Membership(nodes)
	m.Volume = g.VolumeOf(inS)
	m.Conductance = g.Conductance(inS)

	sub, _, err := g.Subgraph(nodes)
	if err != nil {
		return nil, fmt.Errorf("ncp: induced subgraph: %w", err)
	}
	m.AvgPathLen, m.Diameter = pathStats(sub)
	if len(nodes) > 1 {
		m.Density = 2 * float64(sub.M()) / (float64(len(nodes)) * float64(len(nodes)-1))
	} else {
		m.Density = 1
	}
	m.InternalConductance = internalConductance(sub)
	if m.InternalConductance > 0 {
		m.ExtIntRatio = m.Conductance / m.InternalConductance
	} else {
		m.ExtIntRatio = math.Inf(1)
	}
	return m, nil
}

// pathSampleCap bounds the number of BFS sources used for path
// statistics. Beyond it, sources are every k-th node — deterministic, so
// repeated evaluations agree. The estimate converges fast because path
// lengths concentrate in small-diameter clusters.
const pathSampleCap = 128

// pathStats returns the average shortest-path length and the diameter of
// sub, exactly for small subgraphs and via deterministic source sampling
// beyond pathSampleCap nodes (one BFS per sampled source instead of one
// per node, which is the difference between O(s·m) and O(cap·m) on the
// 10³–10⁴-node clusters Figure 1 evaluates).
//
// Disconnected subgraphs score +Inf: an unreachable pair is infinitely
// far, so a disconnected union of whiskers is maximally un-"nice" on the
// Fig. 1(b) measure even though its conductance can be excellent — that
// asymmetry is precisely the quality-vs-niceness artifact the figure is
// about.
func pathStats(sub *graph.Graph) (avg float64, diam int) {
	n := sub.N()
	if n < 2 {
		return 0, 0
	}
	step := 1
	if n > pathSampleCap {
		step = (n + pathSampleCap - 1) / pathSampleCap
	}
	var total float64
	var pairs int
	for s := 0; s < n; s += step {
		reached := 0
		for u, d := range sub.BFS(s) {
			if u == s {
				reached++
				continue
			}
			if d > 0 {
				reached++
				total += float64(d)
				pairs++
				if d > diam {
					diam = d
				}
			}
		}
		if reached < n {
			return math.Inf(1), 0
		}
	}
	if pairs == 0 {
		return math.Inf(1), 0
	}
	return total / float64(pairs), diam
}

func internalConductance(sub *graph.Graph) float64 {
	n := sub.N()
	switch {
	case n <= 1:
		return 1
	case !sub.IsConnected():
		return 0
	case n <= 12:
		phi, _ := exhaustiveMinConductance(sub)
		return phi
	default:
		res, err := partition.Spectral(sub, spectral.FiedlerOptions{MaxIter: 3000, Tol: 1e-7})
		if err != nil && res == nil {
			// Spectral failure on a connected subgraph: fall back to the
			// BFS baseline rather than reporting a bogus value.
			if bfs, berr := partition.BFSGrow(sub, 0); berr == nil {
				return bfs.Conductance
			}
			return math.NaN()
		}
		return res.Conductance
	}
}

func exhaustiveMinConductance(g *graph.Graph) (float64, []bool) {
	n := g.N()
	best := math.Inf(1)
	var bestSet []bool
	for mask := 1; mask < 1<<(n-1); mask++ {
		inS := make([]bool, n)
		for i := 0; i < n; i++ {
			inS[i] = mask&(1<<i) != 0
		}
		if phi := g.Conductance(inS); phi < best {
			best = phi
			bestSet = inS
		}
	}
	return best, bestSet
}

// Cluster is one sampled cluster with its conductance.
type Cluster struct {
	Nodes       []int
	Conductance float64
	Method      string // which algorithm produced it ("spectral", "flow", ...)
}

// Profile is a bag of clusters at many scales produced by one method.
type Profile struct {
	Method   string
	Clusters []Cluster
}

// Point is one point of a size-resolved scatter/envelope series.
type Point struct {
	Size        int
	Conductance float64
}

// MinEnvelope returns, for each power-of-two size bucket
// [2^k, 2^{k+1}), the minimum conductance cluster in the profile — the
// NCP curve proper.
func (p *Profile) MinEnvelope() []Point {
	best := map[int]float64{}
	for _, c := range p.Clusters {
		if len(c.Nodes) < 1 {
			continue
		}
		b := bucketOf(len(c.Nodes))
		if cur, ok := best[b]; !ok || c.Conductance < cur {
			best[b] = c.Conductance
		}
	}
	var out []Point
	for b := 0; b < 64; b++ {
		if phi, ok := best[b]; ok {
			out = append(out, Point{Size: 1 << b, Conductance: phi})
		}
	}
	return out
}

func bucketOf(size int) int {
	b := 0
	for size > 1 {
		size >>= 1
		b++
	}
	return b
}
