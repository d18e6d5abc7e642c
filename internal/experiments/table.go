// Package experiments regenerates every table and worked example of the
// paper's evaluation, comparing closed-form predictions with loads and
// round counts measured on the MPC engine. Each function returns a Table;
// cmd/mpcbench prints them all, and the root benchmarks exercise one
// experiment per paper artifact (All lists the index, E1–E17, in order).
package experiments

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Table is one reproduced artifact: a paper table, example or theorem.
type Table struct {
	ID      string // experiment id, E1..E17 in All's order
	Ref     string // the paper artifact it regenerates
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Add appends a row; values are formatted with %v.
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1e6 || v < 1e-3:
		return fmt.Sprintf("%.3g", v)
	case v >= 100:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}

// Note records a free-text observation below the table.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Format renders the table as aligned monospace text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s (%s)\n", t.ID, t.Title, t.Ref)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Markdown renders the table as GitHub-flavored markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s (%s)\n\n", t.ID, t.Title, t.Ref)
	b.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Columns)) + "\n")
	for _, r := range t.Rows {
		b.WriteString("| " + strings.Join(r, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n*%s*\n", n)
	}
	return b.String()
}

// Config controls experiment sizes.
type Config struct {
	Seed  int64
	Quick bool // smaller inputs for CI / tests
}

// scale returns quick when cfg.Quick, full otherwise.
func (c Config) scale(full, quick int) int {
	if c.Quick {
		return quick
	}
	return full
}

// All runs every experiment and returns the tables in index order.
func All(cfg Config) []*Table {
	return []*Table{
		Table2ShareExponents(cfg),
		Table3RoundsTradeoff(cfg),
		TriangleUnequalSizes(cfg),
		ReplicationRate(cfg),
		SkewedJoin(cfg),
		SkewedStar(cfg),
		SkewedTriangle(cfg),
		ChainMultiRound(cfg),
		CycleRounds(cfg),
		ConnectedComponents(cfg),
		BallsInBins(cfg),
		LowerEqualsUpper(cfg),
		AnswerFraction(cfg),
		SpeedupCurve(cfg),
		SampledStats(cfg),
		CartesianProduct(cfg),
		AbortProbability(cfg),
	}
}

// JSON renders the table as a JSON object with id, ref, title, columns,
// rows and notes — for downstream tooling.
func (t *Table) JSON() ([]byte, error) {
	return json.MarshalIndent(struct {
		ID      string     `json:"id"`
		Ref     string     `json:"ref"`
		Title   string     `json:"title"`
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
		Notes   []string   `json:"notes,omitempty"`
	}{t.ID, t.Ref, t.Title, t.Columns, t.Rows, t.Notes}, "", "  ")
}
