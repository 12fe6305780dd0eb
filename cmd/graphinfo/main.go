// Command graphinfo prints structural and spectral statistics for a graph —
// the quantities a user needs before choosing k-walk parameters, plus the
// CSR memory footprint, degree histogram, and engine-mode prediction that
// matter at corpus scale — and can export the instance in edge-list,
// binary, or DOT form.
//
// Usage:
//
//	graphinfo -graph expander -n 256 [-export edgelist|binary|dot] [-o file]
//	graphinfo -i graph.mwal
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"manywalks"
	"manywalks/internal/graph"
	"manywalks/internal/kernelflag"
)

var errUsage = errors.New("usage error")

func usage(err error) error { return fmt.Errorf("%w: %w", errUsage, err) }

// fmtBytes renders a byte count in the largest sensible binary unit.
func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%d B", b)
}

// printMemoryAndDegrees reports the CSR footprint, the degree histogram,
// and whether the engine's padded fast-path table applies — the facts
// that predict stepping mode and resident size before a run.
func printMemoryAndDegrees(out io.Writer, g *manywalks.Graph) {
	offsets, adj := g.CSR()
	offB := int64(len(offsets)) * 4
	adjB := int64(len(adj)) * 4
	csr := offB + adjB
	detail := fmt.Sprintf("offsets %s + adjacency %s", fmtBytes(offB), fmtBytes(adjB))
	if g.Weighted() {
		wB := int64(len(adj)) * 8
		csr += wB
		detail += fmt.Sprintf(" + weights %s", fmtBytes(wB))
	}
	resident := ""
	if g.Mapped() {
		resident = ", mmapped read-only"
	}
	fmt.Fprintf(out, "csr memory    %s (%s%s)\n", fmtBytes(csr), detail, resident)

	degs := make([]int32, g.N())
	for v := range degs {
		degs[v] = offsets[v+1] - offsets[v]
	}
	slices.Sort(degs)
	quantile := func(q float64) int32 {
		i := int(q * float64(len(degs)-1))
		return degs[i]
	}
	fmt.Fprintf(out, "degree        min %d, median %d, p99 %d, max %d\n",
		degs[0], quantile(0.5), quantile(0.99), degs[len(degs)-1])

	plan := manywalks.PlanPadTable(g)
	if plan.Applies {
		fmt.Fprintf(out, "pad table     applies: %d entries (stride 2^%d) <= limit %d -> single-load uniform sampling\n",
			plan.Entries, plan.Shift, plan.Limit)
	} else {
		fmt.Fprintf(out, "pad table     not built: %d entries (stride 2^%d) > limit %d -> CSR stepping\n",
			plan.Entries, plan.Shift, plan.Limit)
	}
}

// printKernelPlan reports what compiling kern on g would build — the
// capacity check to run before pointing a walkd fleet at a dense kernel. A
// rejected compile (e.g. a row bank over the memory cap) is itself the
// answer, so it prints rather than failing the command.
func printKernelPlan(out io.Writer, g *manywalks.Graph, kern manywalks.Kernel) {
	plan, err := manywalks.PlanKernelTable(g, kern)
	if err != nil {
		fmt.Fprintf(out, "kernel plan   %s: compile rejected: %v\n", kern, err)
		return
	}
	switch {
	case plan.Rows == 0:
		fmt.Fprintf(out, "kernel plan   %s: table-free fast path (no alias table compiled)\n", plan.Kernel)
	case plan.Dense:
		fmt.Fprintf(out, "kernel plan   %s: dense row bank, %d rows x %d columns = %s (cap %s)\n",
			plan.Kernel, plan.Rows, plan.Columns, fmtBytes(plan.Bytes), fmtBytes(plan.Cap))
	default:
		fmt.Fprintf(out, "kernel plan   %s: sparse alias table, %d rows, %d columns = %s\n",
			plan.Kernel, plan.Rows, plan.Columns, fmtBytes(plan.Bytes))
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("graphinfo", flag.ContinueOnError)
	fs.SetOutput(out)
	input := fs.String("i", "", "input graph file (binary or edge list); overrides -graph")
	kind := fs.String("graph", "torus2d", "graph family or kind:params spec")
	n := fs.Int("n", 256, "approximate vertex count (family flags only)")
	seed := fs.Uint64("seed", 20080614, "RNG seed")
	kernelSpec := fs.String("kernel", "", "also plan this kernel's compiled tables on the graph (\"help\" lists kernels)")
	export := fs.String("export", "", "export format: edgelist, binary, or dot")
	outPath := fs.String("o", "", "export destination (default stdout)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return usage(err)
	}

	r := manywalks.NewRand(*seed)
	var g *manywalks.Graph
	var err error
	if *input != "" {
		g, err = manywalks.OpenGraph(*input)
	} else {
		g, _, err = graph.BuildFamily(*kind, *n, r)
	}
	if err != nil {
		return usage(err)
	}

	if *export != "" {
		w := out
		if *outPath != "" {
			f, err := os.Create(*outPath)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		switch *export {
		case "edgelist":
			err = g.WriteEdgeList(w)
		case "binary":
			err = g.WriteBinary(w)
		case "dot":
			err = g.WriteDOT(w)
		default:
			err = usage(fmt.Errorf("unknown export format %q", *export))
		}
		return err
	}

	fmt.Fprintf(out, "name          %s\n", g.Name())
	fmt.Fprintf(out, "vertices      %d\n", g.N())
	fmt.Fprintf(out, "edges         %d (self-loops %d)\n", g.M(), g.SelfLoops())
	printMemoryAndDegrees(out, g)
	if *kernelSpec != "" {
		kern, err := kernelflag.Resolve(*kernelSpec, out)
		if err != nil {
			if errors.Is(err, kernelflag.ErrHelp) {
				return nil
			}
			return usage(err)
		}
		printKernelPlan(out, g, kern)
	}
	fmt.Fprintf(out, "connected     %v\n", g.IsConnected())
	fmt.Fprintf(out, "bipartite     %v\n", g.IsBipartite())
	if g.N() <= 4096 && g.IsConnected() {
		fmt.Fprintf(out, "diameter      %d\n", g.Diameter())
		stay := 0.0
		if g.IsBipartite() {
			stay = 0.5
			fmt.Fprintf(out, "walk          lazy (bipartite graph: simple walk is periodic)\n")
		}
		gap := manywalks.SpectralGap(g, stay, r)
		fmt.Fprintf(out, "spectral gap  %.5f (λ = %.5f)\n", gap, 1-gap)
		if tm := manywalks.MixingTime(g, stay, nil, 40*g.N()*g.N()); tm >= 0 {
			fmt.Fprintf(out, "mixing time   %d (paper definition, worst start)\n", tm)
		}
	}
	if g.N() <= 2048 && g.IsConnected() {
		bounds, err := manywalks.ComputeBounds(g, 0, r)
		if err == nil {
			fmt.Fprintf(out, "hmax / hmin   %.4g / %.4g\n", bounds.Hmax, bounds.Hmin)
			fmt.Fprintf(out, "Matthews      C ∈ [%.4g, %.4g]\n", bounds.MatthewsLower, bounds.MatthewsUpper)
		}
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "graphinfo:", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}
