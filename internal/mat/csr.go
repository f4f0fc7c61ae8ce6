package mat

import (
	"fmt"
	"sort"
)

// CSR is a compressed-sparse-row matrix. It is the scalable representation
// behind every large-graph kernel in this repository: adjacency matrices,
// Laplacians, and random-walk transition matrices are all stored as CSR.
//
// Row i's entries live in Cols[RowPtr[i]:RowPtr[i+1]] and
// Vals[RowPtr[i]:RowPtr[i+1]], with column indices sorted ascending.
type CSR struct {
	Rows, ColsN int
	RowPtr      []int
	Cols        []int
	Vals        []float64
}

// Triplet is a single (row, col, value) entry used to assemble a CSR.
type Triplet struct {
	Row, Col int
	Val      float64
}

// NewCSR assembles a CSR matrix from triplets. Duplicate (row, col) pairs
// are summed; entries whose summed value is exactly zero are dropped, so
// the representation stores structural nonzeros only.
func NewCSR(rows, cols int, entries []Triplet) (*CSR, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("mat: NewCSR negative dimension %dx%d", rows, cols)
	}
	for _, t := range entries {
		if t.Row < 0 || t.Row >= rows || t.Col < 0 || t.Col >= cols {
			return nil, fmt.Errorf("mat: NewCSR entry (%d,%d) out of range %dx%d", t.Row, t.Col, rows, cols)
		}
	}
	sorted := make([]Triplet, len(entries))
	copy(sorted, entries)
	sort.Slice(sorted, func(a, b int) bool {
		if sorted[a].Row != sorted[b].Row {
			return sorted[a].Row < sorted[b].Row
		}
		return sorted[a].Col < sorted[b].Col
	})
	m := &CSR{Rows: rows, ColsN: cols, RowPtr: make([]int, rows+1)}
	for i := 0; i < len(sorted); {
		j := i + 1
		v := sorted[i].Val
		for j < len(sorted) && sorted[j].Row == sorted[i].Row && sorted[j].Col == sorted[i].Col {
			v += sorted[j].Val
			j++
		}
		if v != 0 {
			m.Cols = append(m.Cols, sorted[i].Col)
			m.Vals = append(m.Vals, v)
			m.RowPtr[sorted[i].Row+1]++
		}
		i = j
	}
	for i := 0; i < rows; i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	return m, nil
}

// MulVec computes y = m·x, reusing y if it has the right length and
// allocating otherwise. It returns y.
func (m *CSR) MulVec(x, y []float64) []float64 {
	if len(x) != m.ColsN {
		panic(fmt.Sprintf("mat: CSR MulVec dimension mismatch %d != %d", len(x), m.ColsN))
	}
	if len(y) != m.Rows {
		y = make([]float64, m.Rows)
	}
	for i := 0; i < m.Rows; i++ {
		var s float64
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			s += m.Vals[k] * x[m.Cols[k]]
		}
		y[i] = s
	}
	return y
}

// RowNNZ returns the column indices and values of row i. The returned
// slices alias internal storage and must not be modified.
func (m *CSR) RowNNZ(i int) ([]int, []float64) {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	return m.Cols[lo:hi], m.Vals[lo:hi]
}

// Dense expands m into a dense matrix. For verification at small n only.
func (m *CSR) Dense() *Dense {
	d := NewDense(m.Rows, m.ColsN)
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			d.Set(i, m.Cols[k], m.Vals[k])
		}
	}
	return d
}

// ScaleCols returns a new CSR equal to m·diag(s).
func (m *CSR) ScaleCols(s []float64) *CSR {
	if len(s) != m.ColsN {
		panic(fmt.Sprintf("mat: ScaleCols dimension mismatch %d != %d", len(s), m.ColsN))
	}
	out := &CSR{Rows: m.Rows, ColsN: m.ColsN, RowPtr: append([]int(nil), m.RowPtr...),
		Cols: append([]int(nil), m.Cols...), Vals: make([]float64, len(m.Vals))}
	for k, c := range m.Cols {
		out.Vals[k] = m.Vals[k] * s[c]
	}
	return out
}
