package flow

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/graph"
)

// MQIResult reports the outcome of MQI improvement.
type MQIResult struct {
	Set         []int   // the improved set (subset of the input set)
	Conductance float64 // φ of the improved set
	Rounds      int     // number of flow computations performed
}

// MQI runs the Lang–Rao Max-flow Quotient-cut Improvement procedure: given
// a set A with vol(A) ≤ vol(V)/2, it repeatedly solves an s–t max-flow on
// a network encoding the question "is there S ⊆ A with φ(S) < φ(A)?" and
// replaces A by the improving subset until a local optimum is reached.
// The returned set therefore has conductance no larger than the input's
// — this is the flow-based half of Figure 1's comparison, the algorithm
// that wins on the raw conductance objective.
//
// Construction per round (cut(A) = c, vol(A) = volA): collapse V∖A into a
// source s; every boundary edge (u, v∈Ā) becomes s→u with capacity
// volA·w; internal edges keep capacity volA·w (both directions); every
// u ∈ A gets u→t with capacity c·deg(u). A min cut below c·volA yields
// the improving subset as the sink side intersected with A.
func MQI(g *graph.Graph, set []int) (*MQIResult, error) {
	if len(set) == 0 {
		return nil, errors.New("flow: MQI on empty set")
	}
	inS := g.Membership(set)
	volS := g.VolumeOf(inS)
	if volS == 0 {
		return nil, errors.New("flow: MQI set has zero volume")
	}
	if volS > g.Volume()/2+1e-9 {
		return nil, fmt.Errorf("flow: MQI requires vol(A)=%v ≤ vol(V)/2=%v; pass the smaller side", volS, g.Volume()/2)
	}
	cur := append([]int(nil), set...)
	phi := g.Conductance(inS)
	rounds := 0
	for {
		improved, next, nextPhi, err := mqiRound(g, cur, phi)
		if err != nil {
			return nil, err
		}
		rounds++
		if !improved {
			return &MQIResult{Set: cur, Conductance: phi, Rounds: rounds}, nil
		}
		cur, phi = next, nextPhi
	}
}

func mqiRound(g *graph.Graph, set []int, phi float64) (improved bool, next []int, nextPhi float64, err error) {
	inA := g.Membership(set)
	volA := g.VolumeOf(inA)
	c := g.Cut(inA)
	if c == 0 {
		return false, nil, 0, nil // perfect cut; nothing to improve
	}
	// Local indices for A's nodes.
	idx := make(map[int]int, len(set))
	for i, u := range set {
		idx[u] = i
	}
	nLocal := len(set)
	s, t := nLocal, nLocal+1
	net := NewNetwork(nLocal + 2)
	for i, u := range set {
		nbrs, ws := g.Neighbors(u)
		var boundary float64
		for k, v := range nbrs {
			if j, in := idx[v]; in {
				if i < j {
					if err := net.AddEdge(i, j, volA*ws[k]); err != nil {
						return false, nil, 0, fmt.Errorf("flow: MQI internal edge: %w", err)
					}
				}
			} else {
				boundary += ws[k]
			}
		}
		if boundary > 0 {
			if err := net.AddArc(s, i, volA*boundary); err != nil {
				return false, nil, 0, fmt.Errorf("flow: MQI boundary arc: %w", err)
			}
		}
		if err := net.AddArc(i, t, c*g.Degree(u)); err != nil {
			return false, nil, 0, fmt.Errorf("flow: MQI sink arc: %w", err)
		}
	}
	flowVal, err := net.MaxFlow(s, t)
	if err != nil {
		return false, nil, 0, fmt.Errorf("flow: MQI max-flow: %w", err)
	}
	// No improving subset exists iff the min cut saturates c·volA
	// (the S=∅ cut). Use a relative tolerance for float flows.
	if flowVal >= c*volA*(1-1e-9) {
		return false, nil, 0, nil
	}
	srcSide, err := net.MinCutSide(s)
	if err != nil {
		return false, nil, 0, err
	}
	var sub []int
	for i, u := range set {
		if !srcSide[i] {
			sub = append(sub, u)
		}
	}
	if len(sub) == 0 || len(sub) == len(set) {
		return false, nil, 0, nil
	}
	subPhi := g.Conductance(g.Membership(sub))
	if subPhi >= phi-1e-12 {
		return false, nil, 0, nil
	}
	return true, sub, subPhi, nil
}

// ImproveBothSides runs MQI on the smaller-volume side of the bipartition
// indicated by inS and returns the best set found. It is the standard way
// the "Metis+MQI" pipeline consumes a bisection.
func ImproveBothSides(g *graph.Graph, inS []bool) (*MQIResult, error) {
	volS := g.VolumeOf(inS)
	side := inS
	if volS > g.Volume()/2 {
		side = graph.Complement(inS)
	}
	set := graph.SetOf(side)
	if len(set) == 0 {
		return nil, errors.New("flow: ImproveBothSides got an empty side")
	}
	return MQI(g, set)
}

// MinConductanceExhaustive computes the exact minimum conductance φ(G) by
// enumerating all 2^(n-1) cuts. Exponential: for ground truth in tests
// and small experiments only (n ≤ ~20).
func MinConductanceExhaustive(g *graph.Graph) (float64, []bool) {
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
