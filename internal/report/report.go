// Package report renders experiment results as aligned ASCII tables and
// CSV, the two output formats of the reproduction harness.
package report

import (
	"fmt"
	"io"
	"strings"
)

// Table is one rendered experiment artifact (a paper table or figure's
// data series).
type Table struct {
	// ID is the experiment identifier ("table1", "fig10a", ...).
	ID string
	// Title describes the artifact, e.g. "Table 1: Zynq execution times".
	Title string
	// Columns holds the header cells.
	Columns []string
	// Rows holds the data cells; each row must have len(Columns) cells.
	Rows [][]string
	// Notes are free-form lines printed under the table (paper-expected
	// shape, calibration remarks).
	Notes []string
}

// AddRow appends a row, padding or truncating to the column count.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Columns))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.Rows = append(t.Rows, row)
}

// WriteASCII renders the table with aligned columns.
func (t *Table) WriteASCII(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		return strings.TrimRight(b.String(), " ")
	}
	if _, err := fmt.Fprintf(w, "== %s [%s] ==\n", t.Title, t.ID); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, line(t.Columns)); err != nil {
		return err
	}
	total := len(widths) - 1
	for _, wd := range widths {
		total += wd + 1
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// WriteCSV renders the table as RFC-4180-ish CSV (quotes only when
// needed).
func (t *Table) WriteCSV(w io.Writer) error {
	writeRow := func(cells []string) error {
		out := make([]string, len(cells))
		for i, c := range cells {
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			out[i] = c
		}
		_, err := fmt.Fprintln(w, strings.Join(out, ","))
		return err
	}
	if err := writeRow(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	return nil
}
