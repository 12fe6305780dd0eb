// Command experiments runs the complete reproduction suite: Table 1 plus
// every theorem/figure/ablation experiment listed by harness.Experiments(),
// printing each report and exiting non-zero if any bound or shape check
// fails.
//
// Usage:
//
//	experiments [-quick] [-trials N] [-seed S] [-only substr]
//
// -only restricts the run to experiments whose ID contains the given
// substring (case-insensitive), e.g. -only E-collab or -only thm; Table 1
// runs only when -only is empty or matches "T1".
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"manywalks/internal/harness"
)

// errSuiteFailed distinguishes bound/shape failures (exit 1) from usage
// errors (exit 2).
var errSuiteFailed = fmt.Errorf("experiment suite failed")

// run executes the suite against args, writing reports to out; main is a
// thin exit-code shim so tests can drive the flag-to-report path in
// process.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(out)
	quick := fs.Bool("quick", false, "use small graph sizes")
	trials := fs.Int("trials", 0, "Monte Carlo trials per estimate (0 = default)")
	seed := fs.Uint64("seed", 0, "root RNG seed (0 = default)")
	workers := fs.Int("workers", 0, "parallel trial workers (0 = GOMAXPROCS)")
	only := fs.String("only", "", "run only experiments whose ID contains this substring")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return nil
		}
		return err
	}

	cfg := harness.DefaultConfig()
	if *quick {
		cfg = harness.QuickConfig()
	}
	if *trials > 0 {
		cfg.Trials = *trials
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	cfg.Workers = *workers

	match := func(id string) bool {
		return *only == "" || strings.Contains(strings.ToLower(id), strings.ToLower(*only))
	}
	var selected []harness.Experiment
	for _, ex := range harness.Experiments() {
		if match(ex.ID) {
			selected = append(selected, ex)
		}
	}
	runTable1 := match("T1")
	if !runTable1 && len(selected) == 0 {
		return fmt.Errorf("no experiment ID matches -only %q", *only)
	}

	start := time.Now()
	allPass := true

	if runTable1 {
		t1, _, err := harness.RunTable1(cfg)
		if err != nil {
			return fmt.Errorf("table1: %w", err)
		}
		fmt.Fprintln(out, t1.Render())
		allPass = allPass && t1.Pass
	}

	reports, err := harness.RunExperiments(cfg, selected)
	for _, rep := range reports {
		fmt.Fprintln(out, rep.Render())
		allPass = allPass && rep.Pass
	}
	if err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	fmt.Fprintf(out, "suite finished in %.1fs — overall: ", time.Since(start).Seconds())
	if allPass {
		fmt.Fprintln(out, "PASS")
		return nil
	}
	fmt.Fprintln(out, "FAIL")
	return errSuiteFailed
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		if err == errSuiteFailed {
			os.Exit(1)
		}
		os.Exit(2)
	}
}
