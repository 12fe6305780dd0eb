package graph

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"manywalks/internal/rng"
)

// BuildFamily builds the graph family kind at about n vertices — the
// "-graph kind -n N" flags the commands share — and returns it with the
// family's default start vertex (the barbell's center, else 0). Kinds:
// cycle, path, complete, star, wheel, torus2d, grid3d, hypercube, tree,
// barbell, lollipop, expander, chords, er, regular and rgg; the random
// families (er, regular, rgg) draw from r. A kind containing ':' is a
// ParseSpec spec and ignores n.
func BuildFamily(kind string, n int, r *rng.Source) (*Graph, int32, error) {
	side := int(math.Round(math.Sqrt(float64(n))))
	switch kind {
	case "cycle":
		return Cycle(n), 0, nil
	case "path":
		return Path(n), 0, nil
	case "complete":
		return Complete(n, false), 0, nil
	case "star":
		return Star(n), 0, nil
	case "wheel":
		return Wheel(n), 0, nil
	case "torus2d":
		return Torus2D(side), 0, nil
	case "grid3d":
		s := int(math.Round(math.Cbrt(float64(n))))
		return Grid([]int{s, s, s}, true), 0, nil
	case "hypercube":
		return Hypercube(int(math.Round(math.Log2(float64(n))))), 0, nil
	case "tree":
		height := int(math.Round(math.Log2(float64(n+1)))) - 1
		return BalancedTree(2, max(height, 1)), 0, nil
	case "barbell":
		if n%2 == 0 {
			n++
		}
		g, center := Barbell(n)
		return g, center, nil
	case "lollipop":
		return Lollipop(n/2, n-n/2), 0, nil
	case "expander":
		return MargulisExpander(side), 0, nil
	case "chords":
		for !isPrime(n) {
			n++
		}
		return CycleWithChords(n), 0, nil
	case "er":
		g, err := ConnectedErdosRenyi(n, 3*math.Log(float64(n))/float64(n), r, 50)
		return g, 0, err
	case "regular":
		g, err := ConnectedRandomRegular(n, 4, r, 200)
		return g, 0, err
	case "rgg":
		radius := 2 * math.Sqrt(math.Log(float64(n))/(math.Pi*float64(n)))
		return RandomGeometric(n, radius, r), 0, nil
	}
	if strings.Contains(kind, ":") {
		g, err := ParseSpec(kind)
		return g, 0, err
	}
	return nil, 0, fmt.Errorf("unknown graph kind %q (want cycle, path, complete, star, wheel, torus2d, grid3d, hypercube, tree, barbell, lollipop, expander, chords, er, regular, rgg, or a kind:params spec)", kind)
}

// ParseSpec builds a deterministic graph from a compact "kind:params" spec
// string — the shape the serving daemon and load generator take on the
// command line. Supported specs:
//
//	cycle:n        the n-cycle
//	path:n         the path on n vertices
//	complete:n     K_n (complete:n:loops adds a self-loop per vertex)
//	star:n         the star on n vertices
//	torus:side     the side×side 2-d torus
//	grid2d:side    the side×side 2-d grid (non-periodic)
//	hypercube:d    the d-dimensional hypercube
//	tree:a:h       the complete arity-a tree of height h
//	barbell:n      the paper's barbell B_n (odd n)
//	lollipop:c:p   clique of c with a path tail of p
//	margulis:m     the Margulis–Gabber–Galil expander on the m×m torus
//	expander:m     alias for margulis:m
//	chords:p       the 3-regular inverse-chord expander on a prime p
//
// The returned graph's Name reflects the spec. Out-of-range parameters
// (generator preconditions like cycle's n >= 3 or barbell's odd n) surface
// as errors, not panics — the specs arrive from daemon flags.
func ParseSpec(spec string) (g *Graph, err error) {
	defer func() {
		// The generators guard their preconditions with panics (their
		// documented library contract); a flag-supplied spec converts
		// them to errors instead of crashing the daemon.
		if r := recover(); r != nil {
			g, err = nil, fmt.Errorf("graph: bad spec %q: %v", spec, r)
		}
	}()
	kind, rest, _ := strings.Cut(strings.TrimSpace(spec), ":")
	kind = strings.ToLower(kind)
	args := []int{}
	if rest != "" {
		for _, f := range strings.Split(rest, ":") {
			v, err := strconv.Atoi(f)
			if err != nil {
				return nil, fmt.Errorf("graph: bad spec %q: parameter %q is not an integer", spec, f)
			}
			args = append(args, v)
		}
	}
	for i, v := range args {
		if kind == "complete" && i == 1 {
			continue // the loops flag is a 0/1 boolean
		}
		if v <= 0 {
			return nil, fmt.Errorf("graph: bad spec %q: parameters must be positive", spec)
		}
	}
	want := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("graph: spec %q wants %d parameter(s), got %d", spec, n, len(args))
		}
		return nil
	}
	switch kind {
	case "cycle":
		if err := want(1); err != nil {
			return nil, err
		}
		return Cycle(args[0]), nil
	case "path":
		if err := want(1); err != nil {
			return nil, err
		}
		return Path(args[0]), nil
	case "complete":
		if len(args) == 2 {
			return Complete(args[0], args[1] != 0), nil
		}
		if err := want(1); err != nil {
			return nil, err
		}
		return Complete(args[0], false), nil
	case "star":
		if err := want(1); err != nil {
			return nil, err
		}
		return Star(args[0]), nil
	case "torus":
		if err := want(1); err != nil {
			return nil, err
		}
		return Torus2D(args[0]), nil
	case "grid2d":
		if err := want(1); err != nil {
			return nil, err
		}
		return Grid([]int{args[0], args[0]}, false), nil
	case "hypercube":
		if err := want(1); err != nil {
			return nil, err
		}
		return Hypercube(args[0]), nil
	case "tree":
		if err := want(2); err != nil {
			return nil, err
		}
		return BalancedTree(args[0], args[1]), nil
	case "barbell":
		if err := want(1); err != nil {
			return nil, err
		}
		g, _ := Barbell(args[0])
		return g, nil
	case "lollipop":
		if err := want(2); err != nil {
			return nil, err
		}
		return Lollipop(args[0], args[1]), nil
	case "margulis", "expander":
		if err := want(1); err != nil {
			return nil, err
		}
		return MargulisExpander(args[0]), nil
	case "chords":
		if err := want(1); err != nil {
			return nil, err
		}
		return CycleWithChords(args[0]), nil
	}
	return nil, fmt.Errorf("graph: unknown spec kind %q (want cycle, path, complete, star, torus, grid2d, hypercube, tree, barbell, lollipop, margulis, chords)", kind)
}
