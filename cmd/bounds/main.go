// Command bounds prints the exact single-walk quantities the paper's
// theorems are stated in: extreme hitting times, the Matthews cover-time
// sandwich, the spectral gap, and the paper-definition mixing time.
//
// Usage:
//
//	bounds -graph expander -n 256 [-mixbudget T] [-seed S]
package main

import (
	"flag"
	"fmt"
	"os"

	"manywalks"
	"manywalks/internal/graph"
)

func main() {
	kind := flag.String("graph", "expander", "graph family or kind:params spec")
	n := flag.Int("n", 256, "approximate vertex count")
	mixBudget := flag.Int("mixbudget", 0, "mixing-time step budget (0 = auto)")
	seed := flag.Uint64("seed", 20080614, "RNG seed")
	flag.Parse()

	r := manywalks.NewRand(*seed)
	g, _, err := graph.BuildFamily(*kind, *n, r)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	budget := *mixBudget
	if budget == 0 {
		budget = 20 * g.N() * g.N()
	}
	b, err := manywalks.ComputeBounds(g, budget, r)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("%s  n=%d m=%d\n", g.Name(), g.N(), g.M())
	fmt.Printf("hmax            = %.6g\n", b.Hmax)
	fmt.Printf("hmin            = %.6g\n", b.Hmin)
	fmt.Printf("Matthews lower  = %.6g  (hmin·H_{n-1})\n", b.MatthewsLower)
	fmt.Printf("Matthews upper  = %.6g  (hmax·H_n)\n", b.MatthewsUpper)
	fmt.Printf("Aleliunas       = %.6g  (2m(n-1), universal)\n", b.Aleliunas)
	fmt.Printf("lambda          = %.6f  (second eigenvalue magnitude)\n", b.Lambda)
	fmt.Printf("spectral gap    = %.6f\n", b.SpectralGap)
	if b.MixingTime >= 0 {
		lazy := ""
		if b.LazyMixing {
			lazy = " (lazy walk; graph is bipartite)"
		}
		fmt.Printf("mixing time t_m = %d%s\n", b.MixingTime, lazy)
	} else {
		fmt.Printf("mixing time t_m = not reached within %d steps\n", budget)
	}
	for _, k := range []int{2, 4, 8, 16} {
		fmt.Printf("Baby Matthews bound (Thm 13) k=%-3d: %.6g\n", k, b.BabyMatthewsBound(k))
	}
}
