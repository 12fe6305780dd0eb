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
// ParseSpec spec and ignores n. A size the family cannot take (n < 2, or
// below a generator's minimum) and a graph with an isolated vertex (a
// sparse rgg draw) are errors, not panics: n arrives from a flag.
func BuildFamily(kind string, n int, r *rng.Source) (g *Graph, start int32, err error) {
	if strings.Contains(kind, ":") {
		g, err = ParseSpec(kind)
		return g, 0, err
	}
	if n < 2 {
		return nil, 0, fmt.Errorf("graph: family %q needs n >= 2, got %d", kind, n)
	}
	defer errorOnPanic(&err, fmt.Sprintf("family %q at n=%d", kind, n))
	side := int(math.Round(math.Sqrt(float64(n))))
	switch kind {
	case "cycle":
		g = Cycle(n)
	case "path":
		g = Path(n)
	case "complete":
		g = Complete(n, false)
	case "star":
		g = Star(n)
	case "wheel":
		g = Wheel(n)
	case "torus2d":
		g = Torus2D(side)
	case "grid3d":
		s := int(math.Round(math.Cbrt(float64(n))))
		g = Grid([]int{s, s, s}, true)
	case "hypercube":
		g = Hypercube(int(math.Round(math.Log2(float64(n)))))
	case "tree":
		height := int(math.Round(math.Log2(float64(n+1)))) - 1
		g = BalancedTree(2, max(height, 1))
	case "barbell":
		g, start = Barbell(n | 1)
	case "lollipop":
		g = Lollipop(n/2, n-n/2)
	case "expander":
		g = MargulisExpander(side)
	case "chords":
		for !isPrime(n) {
			n++
		}
		g = CycleWithChords(n)
	case "er":
		g, err = ConnectedErdosRenyi(n, 3*math.Log(float64(n))/float64(n), r, 50)
	case "regular":
		g, err = ConnectedRandomRegular(n, 4, r, 200)
	case "rgg":
		radius := 2 * math.Sqrt(math.Log(float64(n))/(math.Pi*float64(n)))
		g = RandomGeometric(n, radius, r)
	default:
		return nil, 0, fmt.Errorf("unknown graph kind %q (want cycle, path, complete, star, wheel, torus2d, grid3d, hypercube, tree, barbell, lollipop, expander, chords, er, regular, rgg, or a kind:params spec)", kind)
	}
	if err != nil {
		return nil, 0, err
	}
	if min, _ := g.DegreeStats(); min == 0 {
		return nil, 0, fmt.Errorf("graph: %s has an isolated vertex", g.Name())
	}
	return g, start, nil
}

// errorOnPanic converts a generator's precondition panic (the generators'
// documented library contract) into *err, for sizes and specs that arrive
// from flags. Call it deferred.
func errorOnPanic(err *error, what string) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("graph: bad %s: %v", what, r)
	}
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
	defer errorOnPanic(&err, fmt.Sprintf("spec %q", spec))
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
