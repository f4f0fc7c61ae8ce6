package service

import (
	"cmp"
	"slices"

	"repro/internal/kernel"
	"repro/pkg/api"
)

// The request/response DTOs live in the public, versioned pkg/api — the
// server, the pkg/client SDK and graphctl all compile against the same
// wire contract. This file keeps the server-side helpers that turn
// algorithm outputs into api types.

// compareMass is the order of every `top` list on the wire: descending
// mass with node id as the deterministic tiebreak. Nodes are distinct,
// so it is a strict total order and the k best are a unique list.
func compareMass(a, b api.NodeMass) int {
	switch {
	case a.Mass > b.Mass:
		return -1
	case a.Mass < b.Mass:
		return 1
	}
	return cmp.Compare(a.Node, b.Node)
}

// topSelector keeps the k best (under compareMass) of the entries
// offered to it, in a bounded heap with the worst kept entry at the
// root: O(log k) per offer instead of sorting the whole support to
// return a hundred of it.
type topSelector struct {
	best []api.NodeMass
	k    int
}

// newTopSelector sizes a selector for `support` offers of which the k
// best are wanted (all of them when k <= 0), keeping them in buf if it
// has room. Otherwise its one allocation holds min(k, support) entries:
// the wire's topk has no upper bound, so k alone must never size
// anything.
func newTopSelector(support, k int, buf []api.NodeMass) topSelector {
	if k <= 0 || k > support {
		k = support
	}
	if buf == nil || cap(buf) < k { // a nil list would encode as null, not []
		buf = make([]api.NodeMass, 0, k)
	}
	return topSelector{best: buf[:0], k: k}
}

func (s *topSelector) offer(u int, x float64) {
	nm := api.NodeMass{Node: u, Mass: x}
	if len(s.best) < s.k {
		s.best = append(s.best, nm)
		if len(s.best) == s.k {
			for i := s.k/2 - 1; i >= 0; i-- {
				s.siftDown(i)
			}
		}
		return
	}
	if s.k > 0 && compareMass(nm, s.best[0]) < 0 {
		s.best[0] = nm
		s.siftDown(0)
	}
}

// siftDown restores the heap below i: every parent is worse than (sorts
// after) its children.
func (s *topSelector) siftDown(i int) {
	h := s.best
	for {
		worst := i
		if l := 2*i + 1; l < len(h) && compareMass(h[worst], h[l]) < 0 {
			worst = l
		}
		if r := 2*i + 2; r < len(h) && compareMass(h[worst], h[r]) < 0 {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// sorted returns the kept entries in compareMass order.
func (s *topSelector) sorted() []api.NodeMass {
	slices.SortFunc(s.best, compareMass)
	return s.best
}

// topMassesWorkspace returns the k largest entries (all when k <= 0) of
// a kernel workspace's output plane, whose support — the number of
// nonzero entries, kernel.Stats.MaxSupport after a push — the caller
// already has, in buf if it has room.
func topMassesWorkspace(ws *kernel.Workspace, support, k int, buf []api.NodeMass) []api.NodeMass {
	sel := newTopSelector(support, k, buf)
	ws.ForEachP(sel.offer)
	return sel.sorted()
}

// topMassesDense is topMassesWorkspace over a dense vector with
// `support` nonzero entries.
func topMassesDense(v []float64, support, k int) []api.NodeMass {
	sel := newTopSelector(support, k, nil)
	for u, x := range v {
		if x != 0 {
			sel.offer(u, x)
		}
	}
	return sel.sorted()
}
