// Package report renders experiment results as fixed-width text tables
// and series — the same rows and columns the paper's tables report and
// the same data series its figures plot, in a form that diffs cleanly
// across runs.
package report

import (
	"fmt"
	"io"
	"strings"
)

// Table is a simple fixed-width text table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// NewTable starts a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends one row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	for len(cells) < len(t.Columns) {
		cells = append(cells, "")
	}
	t.Rows = append(t.Rows, cells)
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) error {
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
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(pad(cell, widths[i]))
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	total := 0
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total+2*(len(widths)-1)))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	_ = t.Render(&b)
	return b.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Bar renders v against max as a text bar of the given width — the
// closest a terminal gets to the paper's bar charts.
func Bar(v, max float64, width int) string {
	if max <= 0 || v < 0 || width <= 0 {
		return ""
	}
	n := int(v / max * float64(width))
	if n > width {
		n = width
	}
	return strings.Repeat("#", n)
}

// FormatUS renders a nanosecond count as microseconds.
func FormatUS(ns int64) string {
	return fmt.Sprintf("%.1f", float64(ns)/1000)
}

// FormatCount renders large counts compactly (53.2K, 1.20M).
func FormatCount(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fK", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}
