package partition

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
)

// TestSweepCutTieBreakDeterministic locks the explicit tie-breaking of
// the embedding sweep: equal scores always sweep in ascending node id
// order, so an all-equal embedding must yield the prefix {0..k-1} and
// repeated runs (and permuted duplicate values) can never reorder the
// output. This is the guard that keeps engine-order changes upstream
// (diffusion rewrites, solver swaps) from silently reshuffling sweep
// results through sort.Slice's unstable treatment of ties.
func TestSweepCutTieBreakDeterministic(t *testing.T) {
	g := gen.RingOfCliques(4, 5)
	n := g.N()

	// All-equal embedding: the order must be 0,1,2,...,n-1, so the best
	// set is a prefix of ascending ids.
	flat := make([]float64, n)
	for i := range flat {
		flat[i] = 0.25
	}
	first, err := SweepCut(g, flat)
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range first.Set {
		if u != i {
			t.Fatalf("tied sweep set not an ascending-id prefix: set[%d]=%d", i, u)
		}
	}
	for run := 0; run < 10; run++ {
		again, err := SweepCut(g, flat)
		if err != nil {
			t.Fatal(err)
		}
		if again.Prefix != first.Prefix || again.Conductance != first.Conductance {
			t.Fatalf("run %d: sweep drifted: (k=%d,φ=%v) vs (k=%d,φ=%v)",
				run, again.Prefix, again.Conductance, first.Prefix, first.Conductance)
		}
		for i := range first.Set {
			if again.Set[i] != first.Set[i] {
				t.Fatalf("run %d: tied sweep order changed at %d", run, i)
			}
		}
	}

	// Two-level embedding with a large tied plateau: within each level
	// the order must still be ascending by id.
	two := make([]float64, n)
	rng := rand.New(rand.NewSource(5))
	var high []int
	for _, u := range rng.Perm(n)[:n/2] {
		two[u] = 1
		high = append(high, u)
	}
	res, err := SweepCut(g, two)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1
	level := 2.0
	for _, u := range res.Set {
		if two[u] == level {
			if u < prev {
				t.Fatalf("tie within level %g not in ascending id order: %d after %d", level, u, prev)
			}
		} else if two[u] > level {
			t.Fatalf("sweep order not descending by value at node %d", u)
		} else {
			level = two[u]
			prev = -1
		}
		prev = u
	}
}
