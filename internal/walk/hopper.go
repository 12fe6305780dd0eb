package walk

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"manywalks/internal/graph"
)

// The long-range multi-hopper kernel (Estrada et al., "Random Multi-Hopper
// Model: Super-Fast Random Walks on Graphs", PAPERS.md): from vertex v the
// walker hops to ANY other vertex u reachable from v, with probability
// proportional to a decaying function of the hop distance d(v, u) ≥ 1,
//
//	power law:        P(v→u) ∝ d(v,u)^(−s)      (s ≥ 0)
//	exponential law:  P(v→u) ∝ exp(−λ·d(v,u))   (λ ≥ 0)
//
// Small decay parameters make the walk Lévy-flight-like: on large-diameter
// graphs (the cycle, the path) it covers orders of magnitude faster than
// the nearest-neighbor walk, which is why it is the cash-in family for the
// dense-support compile path — its rows reach far outside the CSR neighbor
// list, exactly what the closed enum could not express.
//
// The kernel is the first registered family with SupportDense: compilation
// runs one BFS per vertex (distances computed once per compile, never per
// step), split over the engine's workers in contiguous row ranges, each on
// its own scratch, and builds the accounted alias row-bank in columns
// sized once; stepping then costs the same one draw per round as the
// built-in alias kernels, so determinism across Workers × BatchRounds is
// inherited unchanged, and the serving stack routes it by its canonical
// spelling like any built-in.

// hopperLaw selects the hop-distance decay law.
type hopperLaw uint8

const (
	hopPower hopperLaw = iota
	hopExp
)

// hopperKernel is a comparable value (like every built-in), so parsed
// kernels support == and map keys.
type hopperKernel struct {
	law   hopperLaw
	param float64
}

// HopperPower returns the multi-hopper kernel with the power hop law
// P(v→u) ∝ d(v,u)^(−s); s = 0 is a uniform jump to any reachable vertex.
func HopperPower(s float64) Kernel { return hopperKernel{law: hopPower, param: s} }

// HopperExp returns the multi-hopper kernel with the exponential hop law
// P(v→u) ∝ exp(−λ·d(v,u)).
func HopperExp(lambda float64) Kernel { return hopperKernel{law: hopExp, param: lambda} }

func (k hopperKernel) Name() string     { return "hopper" }
func (k hopperKernel) Support() Support { return SupportDense }

// String renders the canonical spelling, parameter always included —
// "hopper:power" parses to the same kernel as "hopper:power:1" and both
// respell as the latter, which is what keeps engine-cache keys, coalescer
// buckets, and the walkd per-shape counters collision-free.
func (k hopperKernel) String() string {
	return fmt.Sprintf("hopper:%s:%g", k.lawName(), k.param)
}

func (k hopperKernel) lawName() string {
	if k.law == hopExp {
		return "exp"
	}
	return "power"
}

// Validate checks the decay parameter and the dense-table budget: the
// row-bank is Θ(n²), so oversized graphs are rejected here — before the
// serving layer hands the request to NewEngine, which panics by contract.
func (k hopperKernel) Validate(g *graph.Graph) error {
	if math.IsNaN(k.param) || math.IsInf(k.param, 0) || k.param < 0 {
		return fmt.Errorf("walk: hopper %s parameter %v must be finite and >= 0", k.lawName(), k.param)
	}
	return DenseTableFits(g)
}

// TransitionProbs computes the hop-law row of v from one BFS: every vertex
// at distance d ≥ 1 gets weight f(d), normalized over the reachable set.
// Rows are emitted in vertex-id order, so compilation is deterministic. It
// is the compiler's row function (hopperRows) run once on fresh scratch, so
// the law is written once and the caller owns the returned slices.
func (k hopperKernel) TransitionProbs(g *graph.Graph, v int32) ([]int32, []float64, error) {
	if err := k.Validate(g); err != nil {
		return nil, nil, err
	}
	return newHopperRows(k, g).row(v)
}

// hopperRows computes hopper rows for one compile worker (see
// compileHopperRows), which owns it for its range of rows. It reuses one
// BFS queue, distance array and pair of row buffers across rows, and
// evaluates the hop law once per distinct distance: fd[d] = f(d) is
// computed the first time a row reaches distance d. Every row holds the
// same f(d) values, summed and normalized in vertex order, as a row
// computed on its own, so a row does not depend on the worker or on the
// rows computed before it.
type hopperRows struct {
	k     hopperKernel
	g     *graph.Graph
	dist  []int32
	queue []int32
	fd    []float64 // f(d) for every distance reached so far; fd[0] is unused
	out   []int32
	p     []float64
}

func newHopperRows(k hopperKernel, g *graph.Graph) *hopperRows {
	n := g.N()
	return &hopperRows{k: k, g: g, dist: make([]int32, n), queue: make([]int32, n),
		fd: make([]float64, 1), out: make([]int32, 0, n), p: make([]float64, 0, n)}
}

// row returns v's row in buffers that stay valid until the next call.
func (r *hopperRows) row(v int32) ([]int32, []float64, error) {
	if _, _, err := rowNeighbors(r.g, v); err != nil {
		return nil, nil, err
	}
	maxD := r.bfs(v)
	for d := int32(len(r.fd)); d <= maxD; d++ {
		switch r.k.law {
		case hopExp:
			r.fd = append(r.fd, math.Exp(-r.k.param*float64(d)))
		default:
			r.fd = append(r.fd, math.Pow(float64(d), -r.k.param))
		}
	}
	out, p, fd := r.out[:0], r.p[:0], r.fd
	total := 0.0
	for u, d := range r.dist {
		if d < 1 {
			continue // v itself, or unreachable from v
		}
		out = append(out, int32(u))
		p = append(p, fd[d])
		total += fd[d]
	}
	if total <= 0 {
		return nil, nil, fmt.Errorf("walk: hopper %s:%g has no positive hop mass from vertex %d", r.k.lawName(), r.k.param, v)
	}
	for i := range p {
		p[i] /= total
	}
	r.out, r.p = out, p
	return out, p, nil
}

// bfs fills r.dist with the hop distances from src (-1 where unreachable)
// and returns the largest: the distance of the last vertex dequeued.
func (r *hopperRows) bfs(src int32) int32 {
	offsets, adj := r.g.CSR()
	dist, queue := r.dist, r.queue
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue[0] = src
	head, tail := 0, 1
	for head < tail {
		v := queue[head]
		head++
		dv := dist[v] + 1
		for _, u := range adj[offsets[v]:offsets[v+1]] {
			if dist[u] < 0 {
				dist[u] = dv
				queue[tail] = u
				tail++
			}
		}
	}
	return dist[queue[tail-1]]
}

// registerHopperKernels adds the hopper family to the registry; called from
// the package init in kernelregistry.go so built-ins register first.
func registerHopperKernels() {
	RegisterKernel(KernelFamily{
		Name:    "hopper",
		Syntax:  "hopper:law[:param]",
		Doc:     "long-range multi-hopper over BFS distance: law power (P∝d^-s) or exp (P∝e^-λd), param defaults to 1",
		Example: HopperPower(1),
		Parse:   parseHopper,
	})
}

// parseHopper parses the text after "hopper:": a law name with an optional
// decay parameter, e.g. "power", "power:2", "exp:0.5".
func parseHopper(arg string, hasArg bool) (Kernel, error) {
	if !hasArg || arg == "" {
		return nil, fmt.Errorf("walk: hopper requires a hop law: hopper:power[:s] or hopper:exp[:λ]")
	}
	lawName, paramText, hasParam := strings.Cut(arg, ":")
	param := 1.0
	if hasParam {
		v, err := strconv.ParseFloat(paramText, 64)
		if err != nil {
			return nil, fmt.Errorf("walk: bad hopper parameter %q: %w", paramText, err)
		}
		param = v
	}
	if math.IsNaN(param) || math.IsInf(param, 0) || param < 0 {
		return nil, fmt.Errorf("walk: hopper parameter %v must be finite and >= 0", param)
	}
	switch lawName {
	case "power", "pow":
		return HopperPower(param), nil
	case "exp", "exponential":
		return HopperExp(param), nil
	}
	return nil, fmt.Errorf("walk: unknown hopper law %q (want power or exp)", lawName)
}
