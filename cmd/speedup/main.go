// Command speedup measures the k-walk speed-up sweep S^k(G) on a chosen
// graph family and classifies its regime (linear / logarithmic /
// superlinear), reproducing the per-family behaviour behind Table 1 and
// Theorems 6–8.
//
// Usage:
//
//	speedup -graph cycle -n 512 -kmax 64 [-kernel lazy:0.5] [-trials N] [-seed S] [-start V]
//
// Graphs: the families of graph.BuildFamily (cycle, path, complete, star,
// wheel, torus2d, grid3d, hypercube, tree, barbell, lollipop, expander,
// chords, er, regular, rgg) or a "kind:params" spec. For barbell the
// default start is the center vertex.
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

// run executes the command against args, writing the sweep to out; main is
// a thin exit-code shim so tests can drive the whole flag-to-report path
// in process.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("speedup", flag.ContinueOnError)
	fs.SetOutput(out)
	kind := fs.String("graph", "cycle", "graph family or kind:params spec")
	n := fs.Int("n", 256, "approximate vertex count")
	kmax := fs.Int("kmax", 64, "largest k in the doubling sweep")
	kernelFlag := fs.String("kernel", "uniform", kernelflag.Usage())
	trials := fs.Int("trials", 300, "Monte Carlo trials per estimate")
	seed := fs.Uint64("seed", 20080614, "root RNG seed")
	startFlag := fs.Int("start", -1, "start vertex (-1 = family default)")
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
	if *startFlag >= 0 {
		start = int32(*startFlag)
	}
	var ks []int
	for k := 2; k <= *kmax; k *= 2 {
		ks = append(ks, k)
	}
	if len(ks) < 3 {
		ks = []int{2, 3, 4}
	}
	opts := manywalks.MCOptions{
		Trials:   *trials,
		Workers:  *workers,
		Seed:     *seed,
		MaxSteps: 100 * int64(g.N()) * int64(g.N()),
	}
	eng, err := manywalks.CompileEngine(g, manywalks.EngineOptions{Workers: *workers, Kernel: kernel})
	if err != nil {
		return err
	}
	points, err := manywalks.SpeedupSweep(eng, start, ks, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s  n=%d m=%d start=%d kernel=%s  C=%s\n",
		g.Name(), g.N(), g.M(), start, kernel, points[0].Single.Summary)
	fmt.Fprintf(out, "%-6s %-26s %-10s %-8s\n", "k", "C^k", "S^k", "S^k/k")
	for _, p := range points {
		fmt.Fprintf(out, "%-6d %-26s %-10.2f %-8.2f\n", p.K, p.Multi.Summary, p.Speedup, p.PerWalker)
	}
	cls, err := manywalks.ClassifySpeedups(points)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "regime: %s (power slope %.2f, log-fit R² %.3f)\n",
		cls.Regime, cls.PowerSlope, cls.LogFit.R2)
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
