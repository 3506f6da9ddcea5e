// Package metrics provides the small statistics and tabular-output
// helpers the experiment harness uses to print paper-style tables and
// figure series.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Percentile returns the p-th percentile (0..100) by nearest-rank, or 0
// for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

// Table accumulates rows and renders them with aligned columns, suitable
// for experiment output that mirrors a paper table.
type Table struct {
	title   string
	headers []string
	rows    [][]string
	notes   []string
}

// NewTable creates a table with a title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		case float32:
			row[i] = formatFloat(float64(v))
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// AddNote appends a footnote printed under the table.
func (t *Table) AddNote(format string, args ...any) {
	t.notes = append(t.notes, fmt.Sprintf(format, args...))
}

// NumRows returns the number of data rows.
//
// Kept: the row-count checks of the metrics and experiments tests.
func (t *Table) NumRows() int {
	return len(t.rows)
}

func formatFloat(v float64) string {
	switch {
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len([]rune(h))
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len([]rune(cell)) > widths[i] {
				widths[i] = len([]rune(cell))
			}
		}
	}
	if t.title != "" {
		fmt.Fprintf(w, "%s\n", t.title)
	}
	var sep strings.Builder
	for i := range t.headers {
		if i > 0 {
			sep.WriteString("-+-")
		}
		sep.WriteString(strings.Repeat("-", widths[i]))
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				fmt.Fprint(w, " | ")
			}
			// Rows may carry more cells than there are headers; cells
			// beyond the last header render unpadded instead of panicking.
			width := 0
			if i < len(widths) {
				width = widths[i]
			}
			fmt.Fprintf(w, "%-*s", width, cell)
		}
		fmt.Fprintln(w)
	}
	writeRow(t.headers)
	fmt.Fprintln(w, sep.String())
	for _, row := range t.rows {
		writeRow(row)
	}
	for _, note := range t.notes {
		fmt.Fprintf(w, "  note: %s\n", note)
	}
}

// Print renders the table as CSV when csv is set, aligned otherwise.
func (t *Table) Print(w io.Writer, csv bool) {
	if csv {
		t.RenderCSV(w)
	} else {
		t.Render(w)
	}
}

// RenderCSV writes the table as CSV (headers then rows).
func (t *Table) RenderCSV(w io.Writer) {
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	cells := make([]string, len(t.headers))
	for i, h := range t.headers {
		cells[i] = esc(h)
	}
	fmt.Fprintln(w, strings.Join(cells, ","))
	for _, row := range t.rows {
		out := make([]string, len(row))
		for i, c := range row {
			out[i] = esc(c)
		}
		fmt.Fprintln(w, strings.Join(out, ","))
	}
}
