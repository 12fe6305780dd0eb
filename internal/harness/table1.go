package harness

import (
	"fmt"
	"math"

	"manywalks/internal/core"
	"manywalks/internal/graph"
	"manywalks/internal/linalg"
	"manywalks/internal/rng"
	"manywalks/internal/spectral"
	"manywalks/internal/walk"
)

// Family describes one row of the paper's Table 1: how to build the graph at
// the configured scale, which k values to sweep, and what the paper predicts.
type Family struct {
	Key           string
	PaperCover    string // Table 1 "Cover time" column
	PaperHitting  string // "Hitting time" column
	PaperMixing   string // "Mixing time" column
	PaperSpeedup  string // "Speed up" columns
	WantRegime    core.Regime
	Build         func(cfg Config, r *rng.Source) (*graph.Graph, int32, error)
	Ks            func(n int) []int
	MixingStarts  func(g *graph.Graph) []int32 // nil = all starts
	MixingBudget  func(n int) int
	StepBudget    func(n int) int64
	SkipExactHmax bool // families too big for the O(n³) solver in full mode
}

// size picks the quick or full scale.
func size(cfg Config, quick, full int) int {
	if cfg.Quick {
		return quick
	}
	return full
}

// geometricKs returns the doubling sweep {2,4,...,≤kMax}, always with at
// least three points ({2,4,8}) so regime classification is possible even
// when the paper's k < log n band is narrow at the configured scale.
func geometricKs(kMax int) []int {
	if kMax < 8 {
		kMax = 8
	}
	var ks []int
	for k := 2; k <= kMax; k *= 2 {
		ks = append(ks, k)
	}
	return ks
}

func singleStart(*graph.Graph) []int32 { return []int32{0} }

func quadBudget(n int) int64 { return 60 * int64(n) * int64(n) }

func nlognBudget(n int) int64 {
	b := 400 * int64(n) * int64(math.Log(float64(n))+1)
	if b < 1<<16 {
		b = 1 << 16
	}
	return b
}

// Table1Families returns the seven rows of Table 1 in paper order.
func Table1Families() []Family {
	return []Family{
		{
			Key: "cycle", PaperCover: "n²/2", PaperHitting: "n²/2",
			PaperMixing: "O(n²)", PaperSpeedup: "Θ(log k)",
			WantRegime: core.RegimeLogarithmic,
			Build: func(cfg Config, _ *rng.Source) (*graph.Graph, int32, error) {
				return graph.Cycle(size(cfg, 64, 512)), 0, nil
			},
			// Theorem 6 permits k up to e^{n/4}; sweep to k = n so the
			// Θ(log k) shape is unambiguous to the classifier.
			Ks:           func(n int) []int { return geometricKs(n) },
			MixingStarts: singleStart, // vertex-transitive
			MixingBudget: func(n int) int { return 6 * n * n },
			StepBudget:   quadBudget,
		},
		{
			Key: "grid2d", PaperCover: "Θ(n log²n)", PaperHitting: "Θ(n log n)",
			PaperMixing: "Θ(n)", PaperSpeedup: "k, k < log^{1-ε} n",
			WantRegime: core.RegimeLinear,
			Build: func(cfg Config, _ *rng.Source) (*graph.Graph, int32, error) {
				return graph.Torus2D(size(cfg, 8, 32)), 0, nil
			},
			Ks:           func(n int) []int { return geometricKs(int(math.Log(float64(n))) + 1) },
			MixingStarts: singleStart,
			MixingBudget: func(n int) int { return 40 * n },
			StepBudget:   quadBudget,
		},
		{
			Key: "grid3d", PaperCover: "Θ(n log n)", PaperHitting: "Θ(n)",
			PaperMixing: "Θ(n^{2/3})", PaperSpeedup: "k, k < log^{1-ε} n",
			WantRegime: core.RegimeLinear,
			Build: func(cfg Config, _ *rng.Source) (*graph.Graph, int32, error) {
				s := size(cfg, 4, 10)
				return graph.Grid([]int{s, s, s}, true), 0, nil
			},
			Ks:           func(n int) []int { return geometricKs(int(math.Log(float64(n))) + 1) },
			MixingStarts: singleStart,
			MixingBudget: func(n int) int { return 60 * int(math.Cbrt(float64(n))*math.Cbrt(float64(n))) },
			StepBudget:   nlognBudget,
		},
		{
			Key: "hypercube", PaperCover: "Θ(n log n)", PaperHitting: "Θ(n)",
			PaperMixing: "log n·log log n", PaperSpeedup: "k, k < log^{1-ε} n",
			WantRegime: core.RegimeLinear,
			Build: func(cfg Config, _ *rng.Source) (*graph.Graph, int32, error) {
				return graph.Hypercube(size(cfg, 6, 10)), 0, nil
			},
			Ks:           func(n int) []int { return geometricKs(int(math.Log(float64(n))) + 1) },
			MixingStarts: singleStart,
			MixingBudget: func(n int) int { return 200 * int(math.Log2(float64(n))) },
			StepBudget:   nlognBudget,
		},
		{
			Key: "complete", PaperCover: "Θ(n log n)", PaperHitting: "Θ(n)",
			PaperMixing: "1", PaperSpeedup: "k, k < n",
			WantRegime: core.RegimeLinear,
			Build: func(cfg Config, _ *rng.Source) (*graph.Graph, int32, error) {
				return graph.Complete(size(cfg, 64, 512), false), 0, nil
			},
			Ks:           func(n int) []int { return geometricKs(n / 2) },
			MixingStarts: singleStart,
			MixingBudget: func(n int) int { return 64 },
			StepBudget:   nlognBudget,
		},
		{
			Key: "expander", PaperCover: "Θ(n log n)", PaperHitting: "Θ(n)",
			PaperMixing: "log n", PaperSpeedup: "Ω(k), k < n",
			WantRegime: core.RegimeLinear,
			Build: func(cfg Config, _ *rng.Source) (*graph.Graph, int32, error) {
				return graph.MargulisExpander(size(cfg, 8, 24)), 0, nil
			},
			Ks:           func(n int) []int { return geometricKs(n / 2) },
			MixingStarts: singleStart, // MGG is vertex-transitive under the torus action
			MixingBudget: func(n int) int { return 400 * int(math.Log2(float64(n))) },
			StepBudget:   nlognBudget,
		},
		{
			Key: "errandom", PaperCover: "Θ(n log n)", PaperHitting: "Θ(n)",
			PaperMixing: "log n", PaperSpeedup: "k, k < log^{1-ε} n",
			WantRegime: core.RegimeLinear,
			Build: func(cfg Config, r *rng.Source) (*graph.Graph, int32, error) {
				n := size(cfg, 64, 512)
				p := 3 * math.Log(float64(n)) / float64(n)
				g, err := graph.ConnectedErdosRenyi(n, p, r, 50)
				return g, 0, err
			},
			Ks: func(n int) []int { return geometricKs(int(math.Log(float64(n))) + 1) },
			MixingStarts: func(g *graph.Graph) []int32 {
				// Not vertex-transitive: probe a spread of starts.
				n := int32(g.N())
				return []int32{0, n / 4, n / 2, 3 * n / 4, n - 1}
			},
			MixingBudget: func(n int) int { return 600 * int(math.Log2(float64(n))) },
			StepBudget:   nlognBudget,
		},
	}
}

// FamilyByKey returns the Table 1 family with the given key.
func FamilyByKey(key string) (Family, error) {
	for _, f := range Table1Families() {
		if f.Key == key {
			return f, nil
		}
	}
	return Family{}, fmt.Errorf("harness: unknown family %q", key)
}

// Table1Row holds the measured quantities for one family.
type Table1Row struct {
	Family         Family
	Graph          *graph.Graph
	N              int
	Cover          walk.Estimate
	Hmax, Hmin     float64
	MixingTime     int
	LazyMixing     bool
	Points         []core.SpeedupPoint
	Classification core.Classification
	RegimeOK       bool
}

// RunTable1Row measures one family at the configured scale: the cover time,
// the exact hitting extremes, the paper's mixing time, and the speed-up
// sweep with regime classification.
func RunTable1Row(fam Family, cfg Config) (*Table1Row, error) {
	r := rng.NewStream(cfg.Seed, hashKey(fam.Key))
	g, start, err := fam.Build(cfg, r)
	if err != nil {
		return nil, err
	}
	n := g.N()
	row := &Table1Row{Family: fam, Graph: g, N: n, MixingTime: -1}

	opts := cfg.mc(hashKey(fam.Key), fam.StepBudget(n))
	points, err := core.SpeedupCurve(cfg.engine(g, nil), start, fam.Ks(n), opts)
	if err != nil {
		return nil, err
	}
	row.Points = points
	row.Cover = points[0].Single
	cls, err := core.ClassifySpeedups(points)
	if err != nil {
		return nil, err
	}
	row.Classification = cls
	row.RegimeOK = cls.Regime == fam.WantRegime

	if !fam.SkipExactHmax && n <= core.MaxExactBoundsVertices {
		bounds, err := core.ComputeBounds(g, 0, r)
		if err != nil {
			return nil, err
		}
		row.Hmax, row.Hmin = bounds.Hmax, bounds.Hmin
		row.LazyMixing = bounds.LazyMixing
	}

	// Paper-definition mixing time with the family's start set.
	stay := 0.0
	if g.IsBipartite() {
		stay = 0.5
		row.LazyMixing = true
	}
	op := linalg.NewWalkOperator(g, stay)
	starts := spectral.AllStarts(n)
	if fam.MixingStarts != nil {
		starts = fam.MixingStarts(g)
	}
	res := spectral.MixingTime(op, starts, spectral.DefaultEpsilon, fam.MixingBudget(n))
	if !res.Truncated {
		row.MixingTime = res.Time
	}
	return row, nil
}

// RunTable1 measures every family and assembles the full Table 1 report.
func RunTable1(cfg Config) (*Report, []*Table1Row, error) {
	rep := &Report{
		ID:    "T1",
		Title: "Table 1 — cover time, hitting time, mixing time, speed-up by family",
		Columns: []string{
			"family", "n", "C (measured)", "hmax", "t_m", "k*", "S^k*",
			"S^k*/k*", "regime", "paper speed-up",
		},
		Pass: true,
	}
	var rows []*Table1Row
	for _, fam := range Table1Families() {
		row, err := RunTable1Row(fam, cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("family %s: %w", fam.Key, err)
		}
		rows = append(rows, row)
		last := row.Points[len(row.Points)-1]
		tm := "—"
		if row.MixingTime >= 0 {
			tm = fmt.Sprintf("%d", row.MixingTime)
			if row.LazyMixing {
				tm += " (lazy)"
			}
		}
		rep.Rows = append(rep.Rows, []string{
			fam.Key,
			fmt.Sprintf("%d", row.N),
			estCell(row.Cover),
			f(row.Hmax),
			tm,
			fmt.Sprintf("%d", last.K),
			f(last.Speedup),
			f(last.PerWalker),
			row.Classification.Regime.String(),
			fam.PaperSpeedup,
		})
		if !row.RegimeOK {
			rep.Pass = false
			rep.Notes = append(rep.Notes, fmt.Sprintf(
				"%s: measured regime %s != expected %s (power slope %.2f)",
				fam.Key, row.Classification.Regime, fam.WantRegime, row.Classification.PowerSlope))
		}
	}
	return rep, rows, nil
}

// hashKey derives a stable per-family stream id from its key.
func hashKey(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
