package exp

import (
	"fmt"
	"sort"
	"strings"
	"text/tabwriter"
)

// Artifact is anything an experiment emits for display.
type Artifact interface {
	// Render returns the artifact as printable text.
	Render() string
}

// RenderAll renders an experiment's artifacts as dysta-bench prints and
// writes them: each one followed by a blank line.
func RenderAll(arts []Artifact) string {
	var b strings.Builder
	for _, a := range arts {
		b.WriteString(a.Render())
		b.WriteString("\n")
	}
	return b.String()
}

// Table is a rows-and-columns artifact (the paper's tables, and figures
// that reduce to per-configuration numbers).
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Render implements Artifact.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Columns, "\t"))
	for _, row := range t.Rows {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	tw.Flush()
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Series is a line-chart artifact: a shared x axis with named y lines,
// rendered as a column-per-line table (the text equivalent of the paper's
// sweep figures).
type Series struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	X      []float64
	Lines  map[string][]float64
	// Order fixes the column order; unspecified lines follow sorted.
	Order []string
}

// lineNames returns the ordered line names.
func (s *Series) lineNames() []string {
	seen := map[string]bool{}
	var names []string
	for _, n := range s.Order {
		if _, ok := s.Lines[n]; ok && !seen[n] {
			names = append(names, n)
			seen[n] = true
		}
	}
	var rest []string
	for n := range s.Lines {
		if !seen[n] {
			rest = append(rest, n)
		}
	}
	sort.Strings(rest)
	return append(names, rest...)
}

// Render implements Artifact.
func (s *Series) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", s.ID, s.Title)
	fmt.Fprintf(&b, "y: %s\n", s.YLabel)
	names := s.lineNames()
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s\t%s\n", s.XLabel, strings.Join(names, "\t"))
	for i, x := range s.X {
		cells := make([]string, 0, len(names)+1)
		cells = append(cells, fmt.Sprintf("%g", x))
		for _, n := range names {
			ys := s.Lines[n]
			if i < len(ys) {
				cells = append(cells, fmt.Sprintf("%.3f", ys[i]))
			} else {
				cells = append(cells, "-")
			}
		}
		fmt.Fprintln(tw, strings.Join(cells, "\t"))
	}
	tw.Flush()
	return b.String()
}

// Text is a freeform artifact (rendered histograms, matrices, timelines).
type Text struct {
	ID    string
	Title string
	Body  string
}

// Render implements Artifact.
func (t *Text) Render() string {
	return fmt.Sprintf("== %s: %s ==\n%s", t.ID, t.Title, t.Body)
}
