// Hunters and prey: the paper opens with "the problem of hunting or
// tracking on a graph" — hunters and a prey each move along edges, and the
// hunters want to locate the prey fast in an unknown, changing environment,
// which is exactly where randomized exploration shines.
//
// This example stages that pursuit on a 2-d torus: the prey performs a
// random walk, k hunters perform independent random walks from a common
// base camp, and capture happens when a hunter occupies the prey's cell.
// It reports expected capture times for growing k, alongside the k-walk
// *cover* times of the same torus — showing the cover-time speed-up theory
// predicts the pursuit improvement.
//
// Run with:
//
//	go run ./examples/hunters
package main

import (
	"fmt"
	"log"

	"manywalks"
)

const (
	side      = 24 // torus side; n = 576
	hunts     = 1500
	maxRounds = 1 << 20
)

// huntOnce returns rounds until some hunter occupies the prey's cell.
// Everyone moves simultaneously; capture is checked after each round. The
// pursuit is one engine run: walker 0 is the prey, walkers 1..k are the
// hunters, and a pursuit observer fires on the first collision involving
// the prey — hunters crossing each other don't end the hunt.
func huntOnce(eng *manywalks.Engine, base, preyStart int32, k int, seed uint64) int {
	starts := make([]int32, k+1)
	starts[0] = preyStart
	for i := 1; i <= k; i++ {
		starts[i] = base
	}
	res, err := eng.Run(
		manywalks.RunSpec{Starts: starts, Seed: seed, MaxRounds: maxRounds},
		manywalks.NewPursuitObserver(0),
	)
	if err != nil {
		log.Fatal(err)
	}
	return int(res.Rounds)
}

func main() {
	g := manywalks.NewTorus2D(side)
	n := g.N()
	base := int32(0)
	preyStart := int32(n/2 + side/2) // opposite corner of the torus

	fmt.Printf("arena: %s (n=%d), hunters start at %d, prey at %d\n",
		g.Name(), n, base, preyStart)

	opts := manywalks.MCOptions{Trials: 300, Seed: 99, MaxSteps: 1 << 24}

	eng := manywalks.NewEngine(g, manywalks.EngineOptions{})
	fmt.Printf("%-4s %-18s %-14s %-18s\n", "k", "capture (rounds)", "capture gain", "k-cover (rounds)")
	var baseCapture float64
	for _, k := range []int{1, 2, 4, 8, 16} {
		total := 0
		for h := 0; h < hunts; h++ {
			total += huntOnce(eng, base, preyStart, k, uint64(k)<<32|uint64(h))
		}
		capture := float64(total) / hunts
		if k == 1 {
			baseCapture = capture
		}
		cover, err := eng.EstimateCover(base, k, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-4d %-18.1f %-14.2f %-18.1f\n",
			k, capture, baseCapture/capture, cover.Mean())
	}
	fmt.Println("\ncapture time tracks the k-walk cover/hitting behaviour of the torus:")
	fmt.Println("doubling the hunting party roughly halves the expected time to find the prey.")
}
