// Quickstart: measure how much faster eight random walks cover a torus than
// one walk does, and compare the measurement against the paper's bounds.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"manywalks"
)

func main() {
	// The 2-d torus is the paper's canonical "grid" row in Table 1:
	// cover time Θ(n log² n), hitting time Θ(n log n), and a linear
	// speed-up for k below log n (and a little beyond, at finite sizes).
	g := manywalks.NewTorus2D(24) // n = 576
	fmt.Printf("graph: %s with n=%d vertices, m=%d edges\n", g.Name(), g.N(), g.M())

	opts := manywalks.MCOptions{
		Trials:   400,
		Seed:     2008,
		MaxSteps: 1 << 26,
	}

	// One engine serves every estimate below: compile it once per graph.
	eng := manywalks.NewEngine(g, manywalks.EngineOptions{})

	// Single walk versus an 8-walk, both from vertex 0.
	points, err := manywalks.SpeedupSweep(eng, 0, []int{8}, opts)
	if err != nil {
		log.Fatal(err)
	}
	point := points[0]
	fmt.Printf("single walk cover time C      = %s steps\n", point.Single.Summary)
	fmt.Printf("8-walk cover time C^8         = %s rounds\n", point.Multi.Summary)
	fmt.Printf("speed-up S^8 = C/C^8          = %.2f (per-walker %.2f)\n",
		point.Speedup, point.PerWalker)

	// Exact reference quantities: hitting extremes and Matthews' sandwich.
	bounds, err := manywalks.ComputeBounds(g, 0, manywalks.NewRand(1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exact hmax                    = %.0f\n", bounds.Hmax)
	fmt.Printf("Matthews sandwich for C       = [%.0f, %.0f]\n",
		bounds.MatthewsLower, bounds.MatthewsUpper)
	fmt.Printf("Baby Matthews bound on C^8    = %.0f (Theorem 13)\n",
		bounds.BabyMatthewsBound(8))

	// Sweep k and let the library name the regime.
	points, err = manywalks.SpeedupSweep(eng, 0, []int{2, 4, 8, 16}, opts)
	if err != nil {
		log.Fatal(err)
	}
	cls, err := manywalks.ClassifySpeedups(points)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("speed-up regime               = %s (paper predicts linear for k ≲ log n)\n", cls.Regime)
}
