package walk

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"manywalks/internal/graph"
)

// This file defines the open Kernel abstraction: a Kernel is any per-step
// transition law the engine can compile against a fixed graph into
// specialized per-vertex sampling tables (see compileKernel at the bottom
// and the step kernels in engine.go / kernelstep.go). Kernels are small
// immutable values registered in the kernel registry (kernelregistry.go),
// which gives every family a ParseKernel spelling; the engine refuses to
// compile a kernel whose spelling does not round-trip, because the serving
// layer keys compiled-engine caches and coalescing buckets on String().
//
// The five built-in kernels and their transition laws from vertex v (degree
// d, edge weights w_i, N(v) the adjacency list):
//
//	Uniform            next ~ Uniform(N(v)) — the paper's simple walk.
//	Lazy(α)            stay at v with probability α, else Uniform(N(v));
//	                   the standard theoretical normalization (α = 1/2
//	                   removes periodicity) and the law markov.FromWalk
//	                   analyzes.
//	Weighted           next = i-th neighbor with probability w_i / Σw —
//	                   biased walks on weighted graphs; on an unweighted
//	                   graph this coincides with Uniform.
//	NoBacktrack        Uniform(N(v) \ {previous vertex}); degree-1 vertices
//	                   fall back to backtracking and the first step is
//	                   Uniform(N(v)). Not a Markov chain on vertices (its
//	                   state is the directed edge), so it has no
//	                   markov.ChainForKernel image.
//	MetropolisUniform  Metropolis–Hastings with uniform target: propose
//	                   u ~ Uniform(N(v)), accept with min(1, d_v/d_u), else
//	                   stay. Its stationary distribution is uniform over
//	                   vertices regardless of the degree sequence.
//
// The first out-of-enum family, the long-range multi-hopper (hopper.go),
// demonstrates the dense-support path: its rows reach vertices far outside
// the neighbor list, compiled into a row-bank of alias columns with memory
// accounting.

// Support classifies where a kernel's transition rows live, which selects
// the compilation strategy.
type Support uint8

const (
	// SupportSparse rows stay within the CSR neighbor list plus an optional
	// stay-at-v outcome: total table size is O(m) and needs no accounting.
	SupportSparse Support = iota
	// SupportDense rows may reach out-of-neighborhood vertices (up to n-1
	// outcomes per vertex); the compiler builds a row-bank of alias columns
	// under maxDenseKernelBytes. Dense kernels must bound their own table
	// in Validate (see DenseTableFits) so serving layers can reject
	// oversized requests instead of panicking in NewEngine.
	SupportDense
)

// Kernel is a walk step law. Implementations are small immutable values; a
// new family must be registered with RegisterKernel so its spelling parses,
// or the engine will refuse to compile it.
//
// The contract, checked per-kernel by the conformance suite
// (conformance_test.go):
//
//   - ParseKernel(k.String()) must return a kernel rendering the identical
//     string (canonical spelling; load-bearing for engine-cache keys,
//     coalescer buckets, and cluster shape routing).
//   - TransitionProbs rows must be non-negative and sum to 1 within 1e-12.
//   - Validate must reject every configuration the compiler would refuse,
//     including dense tables over the memory cap.
type Kernel interface {
	// Name is the registry family name ("uniform", "lazy", "hopper", ...).
	Name() string
	// String renders the canonical ParseKernel-able spelling of this
	// kernel, parameters included.
	String() string
	// Validate checks the kernel's parameters against a graph.
	Validate(g *graph.Graph) error
	// TransitionProbs returns the kernel's transition distribution out of v
	// as parallel (vertices, probabilities) slices; a possible stay-at-v
	// outcome is included explicitly. It is the reference law the alias
	// compiler, the test oracles, and markov.ChainForKernel all share, so
	// the layers cannot drift apart. Kernels that are not Markov chains on
	// vertices (no-backtrack) return an error.
	TransitionProbs(g *graph.Graph, v int32) ([]int32, []float64, error)
	// Support classifies the rows (sparse neighbor-list vs dense).
	Support() Support
}

// KernelOrUniform normalizes a possibly-nil kernel to the default Uniform
// law. Every boundary that accepts a caller-supplied Kernel (engine
// construction, the serving layer's submits, markov chains) funnels through
// it, so the zero value of any Kernel-carrying options struct still selects
// the paper's walk.
func KernelOrUniform(k Kernel) Kernel {
	if k == nil {
		return Uniform()
	}
	return k
}

// ---------------------------------------------------------------------------
// Built-in kernels

type uniformKernel struct{}

// Uniform returns the simple-random-walk kernel (the default).
func Uniform() Kernel { return uniformKernel{} }

func (uniformKernel) Name() string                { return "uniform" }
func (uniformKernel) String() string              { return "uniform" }
func (uniformKernel) Support() Support            { return SupportSparse }
func (uniformKernel) Validate(*graph.Graph) error { return nil }

func (uniformKernel) TransitionProbs(g *graph.Graph, v int32) ([]int32, []float64, error) {
	nb, d, err := rowNeighbors(g, v)
	if err != nil {
		return nil, nil, err
	}
	p := make([]float64, d)
	for i := range p {
		p[i] = 1 / float64(d)
	}
	return nb, p, nil
}

type lazyKernel struct {
	alpha float64
}

// Lazy returns the lazy walk kernel with stay probability alpha in [0,1).
func Lazy(alpha float64) Kernel { return lazyKernel{alpha: alpha} }

func (k lazyKernel) Name() string     { return "lazy" }
func (k lazyKernel) String() string   { return fmt.Sprintf("lazy:%g", k.alpha) }
func (k lazyKernel) Support() Support { return SupportSparse }

func (k lazyKernel) Validate(*graph.Graph) error {
	if k.alpha < 0 || k.alpha >= 1 || math.IsNaN(k.alpha) {
		return fmt.Errorf("walk: lazy stay probability %v must be in [0,1)", k.alpha)
	}
	return nil
}

func (k lazyKernel) TransitionProbs(g *graph.Graph, v int32) ([]int32, []float64, error) {
	if err := k.Validate(g); err != nil {
		return nil, nil, err
	}
	nb, d, err := rowNeighbors(g, v)
	if err != nil {
		return nil, nil, err
	}
	out := make([]int32, 0, d+1)
	p := make([]float64, 0, d+1)
	move := (1 - k.alpha) / float64(d)
	for _, u := range nb {
		out = append(out, u)
		p = append(p, move)
	}
	if k.alpha > 0 {
		out = append(out, v)
		p = append(p, k.alpha)
	}
	return out, p, nil
}

type weightedKernel struct{}

// Weighted returns the edge-weight-proportional kernel.
func Weighted() Kernel { return weightedKernel{} }

func (weightedKernel) Name() string                { return "weighted" }
func (weightedKernel) String() string              { return "weighted" }
func (weightedKernel) Support() Support            { return SupportSparse }
func (weightedKernel) Validate(*graph.Graph) error { return nil }

func (weightedKernel) TransitionProbs(g *graph.Graph, v int32) ([]int32, []float64, error) {
	nb, d, err := rowNeighbors(g, v)
	if err != nil {
		return nil, nil, err
	}
	total := g.WeightedDegree(v)
	p := make([]float64, d)
	for i := range p {
		p[i] = g.EdgeWeight(v, i) / total
	}
	return nb, p, nil
}

type noBacktrackKernel struct{}

// NoBacktrack returns the non-backtracking kernel.
func NoBacktrack() Kernel { return noBacktrackKernel{} }

func (noBacktrackKernel) Name() string                { return "nobacktrack" }
func (noBacktrackKernel) String() string              { return "nobacktrack" }
func (noBacktrackKernel) Support() Support            { return SupportSparse }
func (noBacktrackKernel) Validate(*graph.Graph) error { return nil }

func (noBacktrackKernel) TransitionProbs(*graph.Graph, int32) ([]int32, []float64, error) {
	return nil, nil, fmt.Errorf("walk: the no-backtrack kernel is not a Markov chain on vertices (its state is the directed edge)")
}

type metropolisKernel struct{}

// MetropolisUniform returns the Metropolis kernel targeting the uniform
// distribution.
func MetropolisUniform() Kernel { return metropolisKernel{} }

func (metropolisKernel) Name() string                { return "metropolis" }
func (metropolisKernel) String() string              { return "metropolis" }
func (metropolisKernel) Support() Support            { return SupportSparse }
func (metropolisKernel) Validate(*graph.Graph) error { return nil }

func (metropolisKernel) TransitionProbs(g *graph.Graph, v int32) ([]int32, []float64, error) {
	nb, d, err := rowNeighbors(g, v)
	if err != nil {
		return nil, nil, err
	}
	out := make([]int32, 0, d+1)
	p := make([]float64, 0, d+1)
	propose := 1 / float64(d)
	stay := 0.0
	for _, u := range nb {
		if u == v { // self-loop proposal: trivially accepted
			stay += propose
			continue
		}
		du := float64(g.Degree(u))
		acc := 1.0
		if du > float64(d) {
			acc = float64(d) / du
		}
		out = append(out, u)
		p = append(p, propose*acc)
		stay += propose * (1 - acc)
	}
	if stay > 1e-15 {
		out = append(out, v)
		p = append(p, stay)
	}
	return out, p, nil
}

// rowNeighbors is the shared preamble of every TransitionProbs: the
// neighbor list and its length, with the isolated-vertex rejection.
func rowNeighbors(g *graph.Graph, v int32) ([]int32, int, error) {
	nb := g.Neighbors(v)
	if len(nb) == 0 {
		return nil, 0, fmt.Errorf("walk: vertex %d is isolated", v)
	}
	return nb, len(nb), nil
}

// ---------------------------------------------------------------------------
// Alias-table compilation

// aliasTable is a compiled per-vertex alias sampler: vertex v owns columns
// [off, off+count) where meta[v] packs off<<32 | count (mirroring the
// engine's vtx metadata). Sampling consumes one 64-bit draw: the low 32
// bits pick a column by Lemire reduction to [0, count), and the high 32
// bits decide between the column's two outcomes — out if high32 < thresh,
// alt otherwise. Column probabilities are therefore quantized to multiples
// of 2^-32 of the column mass; the resulting per-vertex distribution error
// is below 2^-32, far under Monte Carlo resolution, and the quantization is
// deterministic so results stay bit-for-bit reproducible.
type aliasTable struct {
	meta   []uint64 // off<<32 | count, per vertex
	out    []int32
	alt    []int32
	thresh []uint32
}

// bytes reports the table's memory footprint — the accounting the dense
// row-bank compiler runs against maxDenseKernelBytes.
func (at *aliasTable) bytes() int64 {
	return int64(len(at.meta))*8 + int64(len(at.out))*aliasColumnBytes
}

// aliasColumnBytes is the cost of one alias column: out + alt (int32 each)
// plus thresh (uint32).
const aliasColumnBytes = 12

// maxDenseKernelBytes caps the compiled row-bank of a dense-support kernel
// (128 MiB). A dense row holds up to n-1 columns per vertex, so the bank
// grows as n² and an uncapped compile could silently eat the machine on a
// large served graph; sparse kernels are O(m) and never accounted.
const maxDenseKernelBytes = int64(1) << 27

// DenseTableFits reports whether a worst-case dense kernel table (n-1
// columns per vertex) on g fits under the compiler's memory cap. Dense
// kernels call it from Validate so the serving layer rejects oversized
// graph × kernel requests with an error instead of panicking in NewEngine.
func DenseTableFits(g *graph.Graph) error {
	n := int64(g.N())
	worst := n*8 + n*(n-1)*aliasColumnBytes
	if worst > maxDenseKernelBytes {
		return fmt.Errorf("walk: dense kernel table on n=%d needs up to %d MiB, over the %d MiB cap",
			n, worst>>20, maxDenseKernelBytes>>20)
	}
	return nil
}

// buildAliasTable compiles kernel k's transition law on g into an alias
// table via Vose's algorithm, run per vertex with index-ordered worklists so
// compilation is deterministic. A sparse-support table holds neighbor rows
// (plus stay), so it is O(m) and unbounded; its rows are computed in vertex
// order on the calling goroutine and grow the columns by append. A
// dense-support row-bank runs against maxDenseKernelBytes: compilation
// stops with a descriptive error the moment the bank would cross it,
// instead of allocating n² columns first and failing later. The hopper's
// bank is sized before any row is computed (sizeHopperBank) and compiles on
// up to workers goroutines, one per minBankWorkerColumns columns.
func buildAliasTable(g *graph.Graph, k Kernel, workers int) (*aliasTable, error) {
	n := g.N()
	budget := int64(math.MaxInt64)
	if k.Support() == SupportDense {
		budget = maxDenseKernelBytes - int64(n)*8
	}
	if hk, ok := k.(hopperKernel); ok {
		at, err := sizeHopperBank(g, hk, budget)
		if err != nil {
			return nil, err
		}
		return at, at.compileHopperRows(g, hk, max(1, min(workers, len(at.out)/minBankWorkerColumns)))
	}
	at := &aliasTable{meta: make([]uint64, n)}
	var vs voseScratch
	for v := 0; v < n; v++ {
		outs, probs, err := k.TransitionProbs(g, int32(v))
		if err != nil {
			return nil, err
		}
		if used := int64(len(at.out)+len(outs)) * aliasColumnBytes; used > budget {
			return nil, fmt.Errorf("walk: kernel %s row-bank exceeds the %d MiB cap at vertex %d of %d (%d columns so far)",
				k, maxDenseKernelBytes>>20, v, n, len(at.out))
		}
		if err := at.appendRow(v, outs, probs, &vs); err != nil {
			return nil, err
		}
	}
	return at, nil
}

// minBankWorkerColumns is the fewest columns a worker's share of a hopper
// bank compile may hold: at about 25 ns a column, 2^15 columns are roughly
// a millisecond of BFS and Vose work, well above a goroutine's spawn and
// wake-up, so a small bank compiles on the calling goroutine.
const minBankWorkerColumns = 1 << 15

// sizeHopperBank allocates the hopper's row bank at its final size. Row v
// lists every other vertex of v's component, so every row's column count,
// and with it meta's offsets, follows from the component sizes before any
// row is computed. The columns are left for compileHopperRows to fill.
func sizeHopperBank(g *graph.Graph, k hopperKernel, budget int64) (*aliasTable, error) {
	count, comp := g.Components()
	size := make([]int, count)
	for _, c := range comp {
		size[c]++
	}
	at := &aliasTable{meta: make([]uint64, g.N())}
	columns := 0
	for v, c := range comp {
		// The budget keeps offsets far below 2^32.
		at.meta[v] = uint64(columns)<<32 | uint64(size[c]-1)
		columns += size[c] - 1
	}
	if int64(columns)*aliasColumnBytes > budget {
		return nil, fmt.Errorf("walk: kernel %s row-bank of %d columns exceeds the %d MiB cap",
			k, columns, maxDenseKernelBytes>>20)
	}
	at.out = make([]int32, columns)
	at.alt = make([]int32, columns)
	at.thresh = make([]uint32, columns)
	return at, nil
}

// compileHopperRows fills a sized hopper bank on exactly workers
// goroutines, the calling one included. Each worker computes a contiguous
// range of rows on its own hopperRows and voseScratch and writes them into
// its own part of the shared columns; a row is the same whichever worker
// computes it, so the bank is bit for bit the same at every worker count.
// A worker stops at its first failing row, and the error returned is that
// of the lowest failing vertex.
func (at *aliasTable) compileHopperRows(g *graph.Graph, k hopperKernel, workers int) error {
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		lo, hi := laneShardSpan(len(at.meta), workers, w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = at.fillHopperRows(g, k, lo, hi)
		}()
	}
	lo, hi := laneShardSpan(len(at.meta), workers, 0)
	errs[0] = at.fillHopperRows(g, k, lo, hi)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// fillHopperRows computes the hopper rows [lo, hi) into their sized
// columns on one worker's scratch, stopping at the first row that fails.
func (at *aliasTable) fillHopperRows(g *graph.Graph, k hopperKernel, lo, hi int) error {
	rows := newHopperRows(k, g)
	var vs voseScratch
	for v := lo; v < hi; v++ {
		outs, probs, err := rows.row(int32(v))
		if err != nil {
			return err
		}
		off := int(at.meta[v] >> 32)
		end := off + len(outs)
		vs.fill(at.out[off:end], at.alt[off:end], at.thresh[off:end], outs, probs)
	}
	return nil
}

// voseScratch is one compile worker's Vose working memory, reused row to
// row.
type voseScratch struct {
	scaled       []float64
	small, large []int
}

// appendRow writes vertex v's K = len(outs) columns onto the table's tail,
// guarding the uint32 offset packing.
func (at *aliasTable) appendRow(v int, outs []int32, probs []float64, vs *voseScratch) error {
	off := len(at.out)
	k := len(outs)
	if int64(off) > math.MaxUint32 {
		return fmt.Errorf("walk: alias table offset overflows uint32 at vertex %d", v)
	}
	at.meta[v] = uint64(uint32(off))<<32 | uint64(uint32(k))
	at.out = slices.Grow(at.out, k)[:off+k]
	at.alt = slices.Grow(at.alt, k)[:off+k]
	at.thresh = slices.Grow(at.thresh, k)[:off+k]
	vs.fill(at.out[off:], at.alt[off:], at.thresh[off:], outs, probs)
	return nil
}

// fill runs Vose's alias construction for one row of K = len(outs)
// outcomes into its K columns. Each column holds a primary outcome, an
// alias outcome, and the 32-bit acceptance threshold for the primary.
func (vs *voseScratch) fill(out, alt []int32, thresh []uint32, outs []int32, probs []float64) {
	k := len(outs)
	// Every column starts as its own outcome with probability 1 (out ==
	// alt, threshold saturated); leftover columns (numerical residue) keep
	// that state.
	copy(out, outs)
	copy(alt, outs)
	for i := range thresh {
		thresh[i] = math.MaxUint32
	}
	scaled, small, large := vs.scaled[:0], vs.small[:0], vs.large[:0]
	for i, p := range probs {
		scaled = append(scaled, p*float64(k))
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		l := large[len(large)-1]
		small = small[:len(small)-1]
		alt[s] = outs[l]
		thresh[s] = quantize32(scaled[s])
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			large = large[:len(large)-1]
			small = append(small, l)
		}
	}
	vs.scaled, vs.small, vs.large = scaled, small, large
}

// quantize32 maps a probability in [0,1] to the 32-bit acceptance threshold
// used by the alias sampler. Multiplying by 2³² is exact. Probabilities
// within rounding distance of 1 saturate (Round(p·2³²) can reach 2³², which
// would wrap uint32 to 0).
func quantize32(p float64) uint32 {
	if p <= 0 {
		return 0
	}
	t := math.Round(p * (1 << 32))
	if t >= 1<<32 {
		return math.MaxUint32
	}
	return uint32(t)
}

// ---------------------------------------------------------------------------
// The kernel compiler

// progKind selects the engine's step strategy for a compiled kernel. It is
// deliberately internal: the open Kernel interface is the public surface,
// and every registry kernel without a dedicated fast path compiles to
// progAlias, inheriting the alias sampler's draw discipline (and so the
// engine's bit-for-bit determinism) for free.
type progKind uint8

const (
	progUniform     progKind = iota // reservoir-banked pad/CSR fast path
	progLazy                        // stay threshold + uniform fast path
	progAlias                       // compiled alias table/bank
	progNoBacktrack                 // prev-lane CSR sampler
)

// kernelProgram is the engine's compiled form of a kernel: exactly one of
// the sampling strategies below is active, chosen by kind.
type kernelProgram struct {
	kind progKind
	// stayThresh is the Lazy kernel's stay decision: stay iff a fresh
	// 64-bit draw is < stayThresh. Quantizing α to a multiple of 2^-64
	// loses less than float64 resolution.
	stayThresh uint64
	// at is the alias table of a progAlias kernel (Weighted,
	// MetropolisUniform, and every registry kernel such as the hoppers).
	at *aliasTable
	// needPrev marks kernels whose state includes the previous vertex.
	needPrev bool
}

// compileKernel builds the engine's program for kernel k on g. The Uniform
// kernel returns a trivial program (its sampling uses the engine's padded /
// CSR fast path unchanged); Lazy and NoBacktrack keep their dedicated step
// kernels; everything else — the built-in alias kernels and every
// registered family — compiles through TransitionProbs into an alias
// table, whose byte budget Support() sets: unbounded for sparse rows,
// maxDenseKernelBytes for a dense row-bank. Kernels whose spelling does
// not round-trip through ParseKernel are rejected up front: an unparseable
// spelling could alias distinct laws into one engine-cache entry or
// coalescer bucket downstream. workers caps the goroutines that compile a
// hopper's row bank (compileHopperRows); every other table compiles on the
// calling goroutine.
func compileKernel(g *graph.Graph, k Kernel, workers int) (kernelProgram, error) {
	k = KernelOrUniform(k)
	if err := k.Validate(g); err != nil {
		return kernelProgram{}, err
	}
	if err := checkKernelRegistered(k); err != nil {
		return kernelProgram{}, err
	}
	switch kk := k.(type) {
	case uniformKernel:
		return kernelProgram{kind: progUniform}, nil
	case lazyKernel:
		return kernelProgram{kind: progLazy, stayThresh: stayThreshold(kk.alpha)}, nil
	case noBacktrackKernel:
		return kernelProgram{kind: progNoBacktrack, needPrev: true}, nil
	}
	at, err := buildAliasTable(g, k, workers)
	if err != nil {
		return kernelProgram{}, err
	}
	return kernelProgram{kind: progAlias, at: at}, nil
}

// checkKernelRegistered enforces the round-trip contract at compile time:
// ParseKernel(k.String()) must yield a kernel with the identical spelling.
// This is what guarantees the serving layer's String()-keyed caches and
// buckets can never alias two distinct laws.
func checkKernelRegistered(k Kernel) error {
	s := k.String()
	back, err := ParseKernel(s)
	if err != nil {
		return fmt.Errorf("walk: kernel %q (%T) is not registered: its spelling does not parse back (%v); register the family with RegisterKernel", s, k, err)
	}
	if back.String() != s {
		return fmt.Errorf("walk: kernel %q (%T) does not round-trip: ParseKernel respells it %q", s, k, back.String())
	}
	return nil
}

// stayThreshold converts a stay probability to the 64-bit comparison
// threshold used by the lazy step kernel.
func stayThreshold(alpha float64) uint64 {
	if alpha <= 0 {
		return 0
	}
	// alpha < 1 is enforced by Validate; Ldexp(alpha, 64) < 2^64 can still
	// round up to 2^64 for alpha within 2^-54 of 1, so clamp.
	t := math.Ldexp(alpha, 64)
	if t >= math.Ldexp(1, 64) {
		return math.MaxUint64
	}
	return uint64(t)
}

// KernelTablePlan reports what compiling a kernel against a graph would
// build — the memory-accounting view cmd/graphinfo surfaces. Producing the
// plan walks every TransitionProbs row (the same work the compiler does),
// so it costs one compile, not one allocation.
type KernelTablePlan struct {
	Kernel  string // canonical spelling
	Dense   bool   // routed to the accounted row-bank
	Rows    int    // vertices with compiled rows (0 for table-free kernels)
	Columns int64  // total alias columns
	Bytes   int64  // table footprint in bytes
	Cap     int64  // memory cap applied (0 when uncapped: sparse or table-free)
}

// PlanKernelTable computes the compiled-table plan of kernel k on g.
// Kernels with dedicated step paths (uniform, lazy, no-backtrack) report a
// table-free plan. The plan compiles on the calling goroutine.
func PlanKernelTable(g *graph.Graph, k Kernel) (KernelTablePlan, error) {
	k = KernelOrUniform(k)
	prog, err := compileKernel(g, k, 1)
	if err != nil {
		return KernelTablePlan{}, err
	}
	plan := KernelTablePlan{Kernel: k.String(), Dense: k.Support() == SupportDense}
	if plan.Dense {
		plan.Cap = maxDenseKernelBytes
	}
	if prog.at != nil {
		plan.Rows = len(prog.at.meta)
		plan.Columns = int64(len(prog.at.out))
		plan.Bytes = prog.at.bytes()
	}
	return plan, nil
}
