// Command covertime estimates single-walk and k-walk cover times for one
// graph, alongside the exact Matthews sandwich and Baby Matthews (Theorem
// 13) reference bounds when the graph is small enough for exact analysis.
//
// Usage:
//
//	covertime -graph torus2d -n 1024 -k 8 [-kernel lazy:0.5] [-trials N] [-seed S]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"manywalks"
	"manywalks/internal/graph"
	"manywalks/internal/kernelflag"
)

// errUsage marks bad invocations (flags, graph/kernel spellings), which
// exit 2; estimation failures exit 1, preserving the pre-refactor exit
// code contract.
var errUsage = errors.New("usage error")

func usage(err error) error { return fmt.Errorf("%w: %w", errUsage, err) }

// run executes the command against args, writing the report to out; main
// is a thin exit-code shim so tests can drive the whole flag-to-report
// path in process.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("covertime", flag.ContinueOnError)
	fs.SetOutput(out)
	kind := fs.String("graph", "torus2d", "graph family or kind:params spec")
	n := fs.Int("n", 256, "approximate vertex count")
	k := fs.Int("k", 4, "number of parallel walks")
	kernelFlag := fs.String("kernel", "uniform", kernelflag.Usage())
	trials := fs.Int("trials", 400, "Monte Carlo trials")
	seed := fs.Uint64("seed", 20080614, "root RNG seed")
	workers := fs.Int("workers", 0, "parallel trial workers (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return usage(err)
	}

	kernel, err := kernelflag.Resolve(*kernelFlag, out)
	if err != nil {
		if errors.Is(err, kernelflag.ErrHelp) {
			return nil
		}
		return usage(err)
	}
	r := manywalks.NewRand(*seed)
	g, start, err := graph.BuildFamily(*kind, *n, r)
	if err != nil {
		return usage(err)
	}
	opts := manywalks.MCOptions{
		Trials:   *trials,
		Workers:  *workers,
		Seed:     *seed,
		MaxSteps: 100 * int64(g.N()) * int64(g.N()),
	}
	single, err := manywalks.KernelCoverTime(g, kernel, start, opts)
	if err != nil {
		return err
	}
	multi, err := manywalks.KernelKCoverTime(g, kernel, start, *k, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s  n=%d m=%d start=%d kernel=%s\n", g.Name(), g.N(), g.M(), start, kernel)
	fmt.Fprintf(out, "C     = %s   (truncated trials: %d)\n", single.Summary, single.Truncated)
	fmt.Fprintf(out, "C^%-3d = %s   (truncated trials: %d)\n", *k, multi.Summary, multi.Truncated)
	fmt.Fprintf(out, "S^%-3d = %.2f  (per walker %.2f)\n",
		*k, single.Mean()/multi.Mean(), single.Mean()/multi.Mean()/float64(*k))

	// The exact bounds below are uniform-walk quantities; skip them when a
	// different kernel was simulated.
	if g.N() <= 2048 && kernel == manywalks.UniformKernel() {
		b, err := manywalks.ComputeBounds(g, 0, r)
		if err == nil {
			fmt.Fprintf(out, "hmax = %.4g  hmin = %.4g\n", b.Hmax, b.Hmin)
			fmt.Fprintf(out, "Matthews sandwich: [%.4g, %.4g]\n", b.MatthewsLower, b.MatthewsUpper)
			fmt.Fprintf(out, "Baby Matthews (Thm 13) bound at k=%d: %.4g\n", *k, b.BabyMatthewsBound(*k))
			fmt.Fprintf(out, "gap g(n) = C/hmax ≈ %.2f\n", b.GapOf(single.Mean()))
		}
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}
