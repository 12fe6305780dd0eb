// Package harness defines the runnable experiments that regenerate every
// table and figure of the paper, plus the theorem-validation experiments
// listed by Experiments(). Each experiment produces a Report — a titled
// table of rows with free-form notes — that the cmd/ binaries print. The
// harness is deterministic given a Config seed.
package harness

import (
	"fmt"
	"strings"

	"manywalks/internal/graph"
	"manywalks/internal/walk"
)

// Config tunes experiment cost. Quick mode shrinks sizes and trial counts to
// keep `go test` and smoke runs fast; full mode is for the cmd binaries and
// benchmark harness.
type Config struct {
	Seed    uint64
	Trials  int // Monte Carlo trials per estimate
	Workers int // 0 = GOMAXPROCS
	Quick   bool
}

// DefaultConfig returns the full-fidelity configuration.
func DefaultConfig() Config {
	return Config{Seed: 20080614, Trials: 400} // SPAA'08 vintage seed
}

// QuickConfig returns a configuration suitable for unit tests.
func QuickConfig() Config {
	return Config{Seed: 20080614, Trials: 120, Quick: true}
}

// mc builds walk.MCOptions with a per-experiment salt so experiments do not
// share RNG streams even under one root seed.
func (c Config) mc(salt uint64, maxSteps int64) walk.MCOptions {
	return walk.MCOptions{
		Trials:   c.Trials,
		Workers:  c.Workers,
		Seed:     c.Seed ^ salt*0x9e3779b97f4a7c15,
		MaxSteps: maxSteps,
	}
}

// engine compiles g's engine under kern (nil is the uniform walk) on the
// configured workers; every estimate on one (graph, kernel) shares it. The
// experiments build their graphs and pick their kernels themselves, so a
// refusal (an isolated vertex, a bank over the cap) is a bug and panics.
func (c Config) engine(g *graph.Graph, kern walk.Kernel) *walk.Engine {
	return walk.NewEngine(g, walk.EngineOptions{Workers: c.Workers, Kernel: kern})
}

// Report is the printable outcome of one experiment.
type Report struct {
	ID      string // experiment id as listed by Experiments(), e.g. "T1-cycle"
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
	Pass    bool // bound/shape checks; presentational tables set true
}

// Render formats the report as an aligned text table.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	if len(r.Columns) > 0 {
		widths := make([]int, len(r.Columns))
		for i, c := range r.Columns {
			widths[i] = len(c)
		}
		for _, row := range r.Rows {
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
		writeRow(r.Columns)
		sep := make([]string, len(r.Columns))
		for i := range sep {
			sep[i] = strings.Repeat("-", widths[i])
		}
		writeRow(sep)
		for _, row := range r.Rows {
			writeRow(row)
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	status := "PASS"
	if !r.Pass {
		status = "FAIL"
	}
	fmt.Fprintf(&b, "status: %s\n", status)
	return b.String()
}

// f formats a float compactly for table cells.
func f(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 10000 || v < 0.01:
		return fmt.Sprintf("%.3g", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// estCell renders a walk.Estimate as "mean±ci".
func estCell(e walk.Estimate) string {
	return fmt.Sprintf("%s±%s", f(e.Mean()), f(e.CI95()))
}
