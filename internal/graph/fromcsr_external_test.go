package graph_test

import (
	"math"
	"testing"

	"repro/internal/gstore"
)

// TestFromCSRRejectsInvalid feeds CSR arrays that break FromCSR's
// precondition and requires each to be refused before it can reach
// FromCSR. FromCSR itself checks nothing: its one caller,
// gstore.Materialize, copies a gstore graph, and every CSR from outside
// the program becomes one only through gstore.NewCompactFromParts. So
// the arrays are handed to that validator as compact parts, unchanged
// (int rows and neighbours widened or narrowed losslessly, weights as
// float64).
func TestFromCSRRejectsInvalid(t *testing.T) {
	cases := map[string]struct {
		rowPtr []int
		adj    []int
		w      []float64
	}{
		"empty rowPtr":        {[]int{}, nil, nil},
		"rowPtr not 0-based":  {[]int{1, 1}, nil, nil},
		"rowPtr decreases":    {[]int{0, 2, 1, 2}, []int{1, 2}, []float64{1, 1}},
		"rowPtr/adj mismatch": {[]int{0, 1}, []int{0, 0}, []float64{1, 1}},
		"w length mismatch":   {[]int{0, 1, 2}, []int{1, 0}, []float64{1}},
		"odd entries":         {[]int{0, 1}, []int{0}, []float64{1}},
		"self-loop":           {[]int{0, 1, 2}, []int{0, 0}, []float64{1, 1}},
		"neighbor range":      {[]int{0, 1, 2}, []int{5, 0}, []float64{1, 1}},
		"row not sorted":      {[]int{0, 2, 3, 4, 5}, []int{2, 1, 0, 0, 0}, []float64{1, 1, 1, 1, 1}},
		"duplicate neighbor":  {[]int{0, 2, 3, 3}, []int{1, 1, 0}, []float64{1, 1, 2}},
		"zero weight":         {[]int{0, 1, 2}, []int{1, 0}, []float64{0, 0}},
		"nan weight":          {[]int{0, 1, 2}, []int{1, 0}, []float64{math.NaN(), math.NaN()}},
		"asymmetric weight":   {[]int{0, 1, 2}, []int{1, 0}, []float64{1, 2}},
		"missing mirror":      {[]int{0, 1, 1, 2}, []int{1, 1}, []float64{1, 1}},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			rowPtr := make([]int64, len(c.rowPtr))
			for i, v := range c.rowPtr {
				rowPtr[i] = int64(v)
			}
			adj := make([]uint32, len(c.adj))
			for i, v := range c.adj {
				adj[i] = uint32(v)
			}
			if _, err := gstore.NewCompactFromParts(gstore.KindCompact, rowPtr, adj, nil, c.w, nil, nil); err == nil {
				t.Fatalf("the CSR validator accepted %s", name)
			}
		})
	}
}
