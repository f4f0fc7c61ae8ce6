// Package experiments contains one driver per paper artifact: the three
// panels of Figure 1 and the quantitative claims of the three §3 case
// studies. Each driver is deterministic given its seed, returns a typed
// result, and can render itself as the table the paper's figure/claim
// reports. cmd/experiments and the root-level benchmarks are thin
// wrappers around these drivers; the claim tests in this package assert
// the paper's reading of each.
package experiments

import (
	"fmt"
	"strings"
)

// Table is a printable result table shared by all experiment drivers.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func f(v float64) string  { return fmt.Sprintf("%.4g", v) }
func fe(v float64) string { return fmt.Sprintf("%.3e", v) }
func d(v int) string      { return fmt.Sprintf("%d", v) }
