package walk_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"testing"

	"manywalks/internal/graph"
	"manywalks/internal/httpapi"
	"manywalks/internal/serve"
	"manywalks/internal/walk"
)

// The golden-answer corpus: every public way of running a k-walk — the
// Engine wrappers, Engine.Run with multi-observer stop rules, every
// estimator (adaptive waves included), corpus bytes and walkd's HTTP
// bodies — evaluated on graphs that reach every compiled step program, at
// round budgets on both sides of every representational edge, at Workers 1
// and 3. testdata/golden.txt holds one line per case, "<id>\t<answer>";
// answers longer than maxInlineAnswer are stored as a SHA-256 digest.
// Regenerate with
//
//	go test ./internal/walk -run TestGoldenAnswers -update
//
// only when an answer is meant to change.

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.txt from the current code")

const (
	goldenFile      = "testdata/golden.txt"
	maxInlineAnswer = 240
	bigBudget       = int64(1) << 40
)

// goldenWorkers are the worker counts every case runs at; answers never
// depend on them.
var goldenWorkers = []int{1, 3}

type goldenCase struct {
	id     string
	answer string
}

// goldenSet accumulates cases in generation order.
type goldenSet struct {
	cases []goldenCase
	seen  map[string]bool
}

func (s *goldenSet) add(t *testing.T, id, answer string) {
	t.Helper()
	if s.seen[id] {
		t.Fatalf("duplicate golden id %q", id)
	}
	s.seen[id] = true
	if len(answer) > maxInlineAnswer || strings.ContainsAny(answer, "\t\n") {
		answer = fmt.Sprintf("sha256:%x len=%d", sha256.Sum256([]byte(answer)), len(answer))
	}
	s.cases = append(s.cases, goldenCase{id, answer})
}

// budgets returns the round budgets a stopping case runs at: 0, 1, one
// round short of the stop round reached with an unbounded budget (the
// censored budget), the last round a 32-bit cell can hold, the first it
// cannot, and 2^40. Duplicates are dropped.
func budgets(stop int64) []int64 {
	out := []int64{}
	for _, b := range []int64{0, 1, stop - 1, 1<<31 - 1, 1 << 31, bigBudget} {
		dup := false
		for _, o := range out {
			dup = dup || o == b
		}
		if !dup {
			out = append(out, b)
		}
	}
	return out
}

// horizonBudgets are the budgets of runs that never stop early.
var horizonBudgets = []int64{0, 1, 37, 150}

func mustGraph(t *testing.T, spec string) *graph.Graph {
	t.Helper()
	g, err := graph.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func mustKernel(t *testing.T, spec string) walk.Kernel {
	t.Helper()
	k, err := walk.ParseKernel(spec)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// spread places k walkers on distinct even vertices, so that on bipartite
// graphs every pair can still meet.
func spread(n, k int) []int32 {
	stride := max(1, n/(2*k))
	s := make([]int32, k)
	for i := range s {
		s[i] = int32((2 * i * stride) % n)
	}
	return s
}

func markedSet(n int) []bool {
	m := make([]bool, n)
	m[(n/2+1)%n] = true
	m[n-3] = true
	return m
}

func joinInts(xs []int64) string {
	var b strings.Builder
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprint(&b, x)
	}
	return b.String()
}

func errText(err error) string { return "error: " + err.Error() }

// engineCombo is one graph × kernel pair, chosen so that together they
// reach every compiled step program.
type engineCombo struct {
	graph, kernel string
	ks            []int
	full          bool // run every engine entry point, not just the core set
}

var engineCombos = []engineCombo{
	{"margulis:8", "uniform", []int{2, 8}, true},      // fused pad2: walker-major at k = 2, 64-wide at k = 8
	{"cycle:64", "uniform", []int{2, 8}, true},        // stride-2 pad table, 64-round draw groups
	{"complete:2048", "uniform", []int{2, 8}, true},   // CSR stepping
	{"cycle:64", "lazy:0.5", []int{2, 8}, false},      // lazy, pad table
	{"complete:2048", "lazy:0.25", []int{3}, false},   // lazy, CSR
	{"margulis:8", "weighted", []int{2, 8}, false},    // sparse alias
	{"lollipop:12:12", "metropolis", []int{3}, false}, // sparse alias, irregular degrees
	{"cycle:64", "hopper:power:1", []int{2}, false},   // dense alias bank
	{"margulis:8", "nobacktrack", []int{2, 8}, false}, // no-backtrack prev lane
	{"lollipop:64:64", "uniform", []int{1, 3}, false}, // pad table with sentinels, no pair table
}

// engineEntry is one Engine entry point: it runs at budget and returns the
// answer plus the round the run ended (the censored budget's anchor).
type engineEntry struct {
	name string
	core bool
	run  func(e *walk.Engine, k int, seed uint64, budget int64) (string, int64)
}

func engineEntries() []engineEntry {
	cover := func(r walk.CoverResult) (string, int64) {
		return fmt.Sprintf("steps=%d covered=%t", r.Steps, r.Covered), r.Steps
	}
	meetAccessors := func(c *walk.CollisionObserver) string {
		a, b := c.MeetPair()
		return fmt.Sprintf("meet=%d pair=%d,%d vertex=%d groups=%d coal=%d",
			c.MeetRound(), a, b, c.MeetVertex(), c.Groups(), c.CoalescenceRound())
	}
	return []engineEntry{
		{"KCover", true, func(e *walk.Engine, k int, seed uint64, b int64) (string, int64) {
			return cover(e.KCover(spread(e.Graph().N(), k), seed, b))
		}},
		{"KCoverFrom", true, func(e *walk.Engine, k int, seed uint64, b int64) (string, int64) {
			return cover(e.KCoverFrom(0, k, seed, b))
		}},
		{"KCoverTarget", false, func(e *walk.Engine, k int, seed uint64, b int64) (string, int64) {
			return cover(e.KCoverTarget(spread(e.Graph().N(), k), e.Graph().N()/2+1, seed, b))
		}},
		{"KFirstVisits", true, func(e *walk.Engine, k int, seed uint64, b int64) (string, int64) {
			fv := e.KFirstVisits(spread(e.Graph().N(), k), seed, b)
			last := int64(0)
			for _, f := range fv {
				last = max(last, f)
			}
			return joinInts(fv), last
		}},
		{"KHit", true, func(e *walk.Engine, k int, seed uint64, b int64) (string, int64) {
			r := e.KHit(spread(e.Graph().N(), k), markedSet(e.Graph().N()), seed, b)
			return fmt.Sprintf("%+v", r), r.Rounds
		}},
		{"KHitFrom", false, func(e *walk.Engine, k int, seed uint64, b int64) (string, int64) {
			r := e.KHitFrom(1, k, markedSet(e.Graph().N()), seed, b)
			return fmt.Sprintf("%+v", r), r.Rounds
		}},
		{"KHitTargets", false, func(e *walk.Engine, k int, seed uint64, b int64) (string, int64) {
			n := int32(e.Graph().N())
			r, err := e.KHitTargets(spread(int(n), k), []int32{n - 1, n / 2, n / 2, 3}, seed, b)
			if err != nil {
				return errText(err), 0
			}
			return fmt.Sprintf("rounds=%d hits=%s all=%t", r.Rounds, joinInts(r.FirstHit), r.AllHit), r.Rounds
		}},
		{"PartialCoverCurve", true, func(e *walk.Engine, k int, seed uint64, b int64) (string, int64) {
			r, err := e.PartialCoverCurve(spread(e.Graph().N(), k), []float64{0.9, 0.25, 1, 0.5, 0.5}, seed, b)
			if err != nil {
				return errText(err), 0
			}
			return fmt.Sprintf("rounds=%s final=%d complete=%t", joinInts(r.Rounds), r.FinalRound, r.Complete), r.FinalRound
		}},
		{"KMeetingTime", true, func(e *walk.Engine, k int, seed uint64, b int64) (string, int64) {
			r, err := e.KMeetingTime(spread(e.Graph().N(), k), seed, b)
			if err != nil {
				return errText(err), 0
			}
			return fmt.Sprintf("%+v", r), r.Rounds
		}},
		{"KCoalescenceTime", true, func(e *walk.Engine, k int, seed uint64, b int64) (string, int64) {
			r, err := e.KCoalescenceTime(spread(e.Graph().N(), k), seed, b)
			if err != nil {
				return errText(err), 0
			}
			return fmt.Sprintf("%+v", r), r.Rounds
		}},
		{"RunPursuit", false, func(e *walk.Engine, k int, seed uint64, b int64) (string, int64) {
			p := walk.NewPursuitObserver(k - 1)
			r, err := e.Run(walk.RunSpec{Starts: spread(e.Graph().N(), k), Seed: seed, MaxRounds: b}, p)
			if err != nil {
				return errText(err), 0
			}
			return fmt.Sprintf("%+v %s", r, meetAccessors(p)), r.Rounds
		}},
		{"RunAny", true, func(e *walk.Engine, k int, seed uint64, b int64) (string, int64) {
			cov, meet := walk.NewCoverObserver(), walk.NewMeetingObserver()
			r, err := e.Run(walk.RunSpec{Starts: spread(e.Graph().N(), k), Seed: seed, MaxRounds: b, Stop: walk.StopWhenAny()}, cov, meet)
			if err != nil {
				return errText(err), 0
			}
			return fmt.Sprintf("%+v count=%d %s", r, cov.Count(), meetAccessors(meet)), r.Rounds
		}},
		{"RunAll", true, func(e *walk.Engine, k int, seed uint64, b int64) (string, int64) {
			n := e.Graph().N()
			cov, meet, hit := walk.NewFirstVisitObserver(), &walk.CollisionObserver{}, walk.NewHitObserver(markedSet(n))
			r, err := e.Run(walk.RunSpec{Starts: spread(n, k), Seed: seed, MaxRounds: b}, cov, meet, hit)
			if err != nil {
				return errText(err), 0
			}
			return fmt.Sprintf("%+v count=%d first=%x %s hit=%+v", r, cov.Count(),
				sha256.Sum256([]byte(joinInts(cov.FirstVisits()))), meetAccessors(meet), hit.Result(b)), r.Rounds
		}},
	}
}

// horizonEntry is Engine.Run under RunToHorizon with every observer
// family configured at once.
func horizonEntry(e *walk.Engine, k int, seed uint64, b int64) string {
	n := e.Graph().N()
	cov := &walk.CoverObserver{RecordFirst: true, Thresholds: []float64{0.1, 0.3, 0.3, 0.8}, Targets: []int32{int32(n - 1), 5}}
	coal := &walk.CollisionObserver{Coalesce: true}
	meet := walk.NewMeetingObserver()
	hit := walk.NewHitObserver(markedSet(n))
	r, err := e.Run(walk.RunSpec{Starts: spread(n, k), Seed: seed, MaxRounds: b, Stop: walk.RunToHorizon()}, cov, coal, meet, hit)
	if err != nil {
		return errText(err)
	}
	a, bb := coal.MeetPair()
	c, d := meet.MeetPair()
	return fmt.Sprintf("%+v count=%d first=%x thr=%s targets=%s profile=%x coal=%d/%d,%d/%d/%d/%d meet=%d/%d,%d/%d/%d hit=%+v",
		r, cov.Count(), sha256.Sum256([]byte(joinInts(cov.FirstVisits()))), joinInts(cov.ThresholdRounds()),
		joinInts(cov.TargetHits()), sha256.Sum256([]byte(fmt.Sprint(cov.Profile(b)))),
		coal.MeetRound(), a, bb, coal.MeetVertex(), coal.Groups(), coal.CoalescenceRound(),
		meet.MeetRound(), c, d, meet.MeetVertex(), meet.Groups(), hit.Result(b))
}

func addEngineCases(t *testing.T, s *goldenSet) {
	for _, c := range engineCombos {
		g := mustGraph(t, c.graph)
		kern := mustKernel(t, c.kernel)
		engines := map[int]*walk.Engine{}
		for _, w := range goldenWorkers {
			engines[w] = walk.NewEngine(g, walk.EngineOptions{Workers: w, Kernel: kern})
		}
		for _, k := range c.ks {
			seed := uint64(0x5eed0000) + uint64(k)
			for _, ent := range engineEntries() {
				if !ent.core && !c.full {
					continue
				}
				_, stop := ent.run(engines[1], k, seed, bigBudget)
				for _, b := range budgets(stop) {
					for _, w := range goldenWorkers {
						ans, _ := ent.run(engines[w], k, seed, b)
						s.add(t, fmt.Sprintf("%s %s %s k=%d seed=%d budget=%d w=%d", ent.name, c.graph, c.kernel, k, seed, b, w), ans)
					}
				}
			}
			for _, b := range horizonBudgets {
				for _, w := range goldenWorkers {
					s.add(t, fmt.Sprintf("RunHorizon %s %s k=%d seed=%d budget=%d w=%d", c.graph, c.kernel, k, seed, b, w),
						horizonEntry(engines[w], k, seed, b))
				}
			}
		}
	}
}

// estimatorEntry runs one estimator; its answer is the formatted estimate
// and its censoring anchor the largest per-trial sample.
type estimatorEntry struct {
	name string
	run  func(g *graph.Graph, kern walk.Kernel, opts walk.MCOptions) (string, int64)
}

func estimateAnswer(e walk.Estimate, err error) (string, int64) {
	if err != nil {
		return errText(err), 0
	}
	return fmt.Sprintf("%+v", e), int64(e.Summary.Max)
}

func estimatorEntries(n int) []estimatorEntry {
	starts := spread(n, 3)
	target := int32(n/2 + 1)
	return []estimatorEntry{
		{"EstimateCoverTime", func(g *graph.Graph, _ walk.Kernel, o walk.MCOptions) (string, int64) {
			return estimateAnswer(walk.EstimateCoverTime(g, 0, o))
		}},
		{"EstimateKCoverTime/k3", func(g *graph.Graph, _ walk.Kernel, o walk.MCOptions) (string, int64) {
			return estimateAnswer(walk.EstimateKCoverTime(g, 0, 3, o))
		}},
		{"EstimateKCoverTime/k8", func(g *graph.Graph, _ walk.Kernel, o walk.MCOptions) (string, int64) {
			return estimateAnswer(walk.EstimateKCoverTime(g, 1, 8, o))
		}},
		{"EstimateKCoverTimeStationary", func(g *graph.Graph, _ walk.Kernel, o walk.MCOptions) (string, int64) {
			return estimateAnswer(walk.EstimateKCoverTimeStationary(g, 4, o))
		}},
		{"EstimateHittingTime", func(g *graph.Graph, _ walk.Kernel, o walk.MCOptions) (string, int64) {
			return estimateAnswer(walk.EstimateHittingTime(g, 0, target, o))
		}},
		{"CoverTimeTail", func(g *graph.Graph, _ walk.Kernel, o walk.MCOptions) (string, int64) {
			p, err := walk.CoverTimeTail(g, 0, o.MaxSteps, o)
			if err != nil {
				return errText(err), 0
			}
			return fmt.Sprint(p), 0
		}},
		{"EstimateKernelCoverTime", func(g *graph.Graph, k walk.Kernel, o walk.MCOptions) (string, int64) {
			return estimateAnswer(walk.EstimateKernelCoverTime(g, k, 0, o))
		}},
		{"EstimateKernelKCoverTime", func(g *graph.Graph, k walk.Kernel, o walk.MCOptions) (string, int64) {
			return estimateAnswer(walk.EstimateKernelKCoverTime(g, k, 0, 8, o))
		}},
		{"EstimateKernelHittingTime", func(g *graph.Graph, k walk.Kernel, o walk.MCOptions) (string, int64) {
			return estimateAnswer(walk.EstimateKernelHittingTime(g, k, 0, target, o))
		}},
		{"EstimatePartialCoverTime", func(g *graph.Graph, _ walk.Kernel, o walk.MCOptions) (string, int64) {
			return estimateAnswer(walk.EstimatePartialCoverTime(g, 0, 3, 0.6, o))
		}},
		{"EstimateMeetingTime", func(g *graph.Graph, _ walk.Kernel, o walk.MCOptions) (string, int64) {
			return estimateAnswer(walk.EstimateMeetingTime(g, starts[0], starts[1], o))
		}},
		{"EstimateKMeetingTime", func(g *graph.Graph, _ walk.Kernel, o walk.MCOptions) (string, int64) {
			return estimateAnswer(walk.EstimateKMeetingTime(g, starts, o))
		}},
		{"EstimateKCoalescenceTime", func(g *graph.Graph, _ walk.Kernel, o walk.MCOptions) (string, int64) {
			c, m, err := walk.EstimateKCoalescenceTime(g, starts, o)
			if err != nil {
				return errText(err), 0
			}
			return fmt.Sprintf("%+v meet=%+v", c, m), int64(c.Summary.Max)
		}},
		{"MeanPartialCoverRounds", func(g *graph.Graph, _ walk.Kernel, o walk.MCOptions) (string, int64) {
			ests, err := walk.MeanPartialCoverRounds(g, 0, 3, []float64{0.75, 0.25, 1}, o)
			if err != nil {
				return errText(err), 0
			}
			return fmt.Sprintf("%+v", ests), int64(ests[2].Summary.Max)
		}},
	}
}

// estimatorCombos pair each graph with the kernel its kernel estimators
// use. only, when set, restricts an expensive graph to a few estimators.
var estimatorCombos = []struct {
	graph, kernel string
	only          []string
}{
	{"margulis:8", "uniform", nil},
	{"cycle:64", "uniform", nil},
	{"complete:2048", "uniform", []string{"EstimateKCoverTime/k8", "EstimateHittingTime", "EstimateKMeetingTime", "EstimateKernelKCoverTime"}},
	{"cycle:64", "lazy:0.5", nil},
	{"lollipop:12:12", "metropolis", nil},
	{"margulis:8", "weighted", nil},
	{"cycle:64", "hopper:power:1", nil},
	{"margulis:8", "nobacktrack", nil},
}

// kernelEstimator reports whether an estimator takes the combo's kernel;
// the uniform-only estimators run once per graph.
func kernelEstimator(name string) bool { return strings.HasPrefix(name, "EstimateKernel") }

var goldenPrecisions = []struct {
	name string
	prec walk.Precision
}{
	{"converged", walk.Precision{RTol: 0.15, Wave: 8}},
	{"capped", walk.Precision{RTol: 1e-9, Wave: 8, MaxTrials: 20}},
}

func addEstimatorCases(t *testing.T, s *goldenSet) {
	ranUniform := map[string]bool{}
	for _, c := range estimatorCombos {
		g := mustGraph(t, c.graph)
		kern := mustKernel(t, c.kernel)
		first := !ranUniform[c.graph]
		ranUniform[c.graph] = true
		for _, ent := range estimatorEntries(g.N()) {
			if !kernelEstimator(ent.name) && !first || c.only != nil && !slices.Contains(c.only, ent.name) {
				continue
			}
			opts := walk.MCOptions{Trials: 12, Seed: 77, Workers: 1, MaxSteps: bigBudget}
			_, stop := ent.run(g, kern, opts)
			for _, b := range budgets(stop) {
				for _, w := range goldenWorkers {
					opts := walk.MCOptions{Trials: 12, Seed: 77, Workers: w, MaxSteps: b}
					ans, _ := ent.run(g, kern, opts)
					s.add(t, fmt.Sprintf("%s %s %s budget=%d w=%d", ent.name, c.graph, c.kernel, b, w), ans)
				}
			}
			for _, p := range goldenPrecisions {
				if c.only != nil && p.name != "converged" {
					continue
				}
				for _, b := range []int64{stop - 1, 1 << 31, bigBudget} {
					for _, w := range goldenWorkers {
						var waves []string
						opts := walk.MCOptions{Trials: 64, Seed: 78, Workers: w, MaxSteps: b, Precision: p.prec,
							OnWave: func(ws walk.WaveStat) { waves = append(waves, fmt.Sprintf("%+v", ws)) }}
						ans, _ := ent.run(g, kern, opts)
						s.add(t, fmt.Sprintf("%s %s %s precision=%s budget=%d w=%d", ent.name, c.graph, c.kernel, p.name, b, w),
							ans+" waves="+strings.Join(waves, ";"))
					}
				}
			}
		}
		if first && c.only == nil {
			for _, h := range []int64{0, 1, 10, 40} {
				for _, k := range []int{1, 8} {
					for _, w := range goldenWorkers {
						mean, err := walk.MeanCoverageProfile(g, 0, k, h, walk.MCOptions{Trials: 12, Seed: 79, Workers: w})
						ans := fmt.Sprint(mean)
						if err != nil {
							ans = errText(err)
						}
						s.add(t, fmt.Sprintf("MeanCoverageProfile %s k=%d horizon=%d w=%d", c.graph, k, h, w), ans)
					}
				}
			}
		}
	}
}

func addCorpusCases(t *testing.T, s *goldenSet) {
	type shape struct{ perVertex, length int }
	for _, c := range []struct{ graph, kernel string }{
		{"margulis:8", "uniform"},
		{"complete:2048", "uniform"},
		{"cycle:64", "lazy:0.5"},
		{"lollipop:12:12", "metropolis"},
		{"cycle:64", "hopper:power:1"},
		{"margulis:8", "nobacktrack"},
	} {
		g := mustGraph(t, c.graph)
		kern := mustKernel(t, c.kernel)
		shapes := []shape{{1, 1}, {3, 9}}
		if c.graph == "margulis:8" && c.kernel == "uniform" {
			shapes = append(shapes, shape{40, 2000}) // two waves
		}
		for _, sh := range shapes {
			for _, f := range []walk.CorpusFormat{walk.CorpusText, walk.CorpusBinary} {
				if sh.length > 100 && f == walk.CorpusBinary {
					continue
				}
				for _, w := range goldenWorkers {
					eng := walk.NewEngine(g, walk.EngineOptions{Workers: w, Kernel: kern})
					var buf bytes.Buffer
					st, err := eng.GenerateCorpus(walk.CorpusSpec{WalksPerVertex: sh.perVertex, Length: sh.length,
						Seed: 91, Format: f, Workers: w}, &buf)
					ans := fmt.Sprintf("%+v %x", st, sha256.Sum256(buf.Bytes()))
					if err != nil {
						ans = errText(err)
					}
					s.add(t, fmt.Sprintf("GenerateCorpus %s %s walks=%d length=%d format=%d w=%d",
						c.graph, c.kernel, sh.perVertex, sh.length, f, w), ans)
				}
			}
		}
	}
}

// httpCase is one walkd request.
type httpCase struct {
	path string
	body func(budget int64) string
}

func addHTTPCases(t *testing.T, s *goldenSet) {
	post := func(h http.Handler, path, body string) string {
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return fmt.Sprintf("%d %s", rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	cases := []struct {
		name, path string
		body       func(budget int64) string
		stop       func(answer string) int64
	}{
		{"query", "/v1/query", func(b int64) string {
			return fmt.Sprintf(`{"graph":"m8","origin":0,"k":4,"ttl":%d,"targets":[33,40],"seed":5}`, b)
		}, nil},
		{"query-lazy", "/v1/query", func(b int64) string {
			return fmt.Sprintf(`{"graph":"c64","kernel":"lazy:0.5","origin":0,"k":2,"ttl":%d,"targets":[31],"seed":6}`, b)
		}, nil},
		{"query-hopper", "/v1/query", func(b int64) string {
			return fmt.Sprintf(`{"graph":"c64","kernel":"hopper:power:1","origin":3,"k":1,"ttl":%d,"targets":[40],"seed":7}`, b)
		}, nil},
		{"cover", "/v1/cover", func(b int64) string {
			return fmt.Sprintf(`{"graph":"m8","start":0,"k":8,"trials":10,"seed":8,"max_steps":%d}`, b)
		}, nil},
		{"cover-csr", "/v1/cover", func(b int64) string {
			return fmt.Sprintf(`{"graph":"k2048","start":0,"k":4,"trials":4,"seed":9,"max_steps":%d}`, b)
		}, nil},
		{"cover-nobacktrack", "/v1/cover", func(b int64) string {
			return fmt.Sprintf(`{"graph":"m8","kernel":"nobacktrack","start":0,"k":2,"trials":10,"seed":10,"max_steps":%d}`, b)
		}, nil},
		{"cover-adaptive", "/v1/cover", func(b int64) string {
			return fmt.Sprintf(`{"graph":"m8","start":0,"k":3,"trials":64,"seed":11,"max_steps":%d,"rtol":0.15,"wave":8}`, b)
		}, nil},
		{"cover-stream", "/v1/cover", func(b int64) string {
			return fmt.Sprintf(`{"graph":"c64","start":0,"k":4,"trials":40,"seed":12,"max_steps":%d,"rtol":1e-9,"wave":8,"stream":true}`, b)
		}, nil},
		{"hitting", "/v1/hitting", func(b int64) string {
			return fmt.Sprintf(`{"graph":"m8","start":0,"target":33,"trials":10,"seed":13,"max_steps":%d}`, b)
		}, nil},
		{"hitting-metropolis", "/v1/hitting", func(b int64) string {
			return fmt.Sprintf(`{"graph":"lp","kernel":"metropolis","start":0,"target":20,"trials":10,"seed":14,"max_steps":%d}`, b)
		}, nil},
		{"hitting-stream", "/v1/hitting", func(b int64) string {
			return fmt.Sprintf(`{"graph":"c64","start":0,"target":17,"trials":48,"seed":15,"max_steps":%d,"rtol":0.2,"wave":8,"stream":true}`, b)
		}, nil},
		{"meeting", "/v1/meeting", func(b int64) string {
			return fmt.Sprintf(`{"graph":"c64","starts":[0,10,20],"trials":10,"seed":16,"max_steps":%d}`, b)
		}, nil},
		{"meeting-adaptive", "/v1/meeting", func(b int64) string {
			return fmt.Sprintf(`{"graph":"m8","starts":[0,9],"trials":40,"seed":17,"max_steps":%d,"rtol":0.2,"wave":8}`, b)
		}, nil},
	}
	for _, w := range goldenWorkers {
		srv, err := httpapi.BuildServer("m8=margulis:8,c64=cycle:64,k2048=complete:2048,lp=lollipop:12:12",
			serve.Options{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		mux := httpapi.NewMux(srv, 0)
		for _, c := range cases {
			anchor := post(mux, c.path, c.body(bigBudget))
			for _, b := range budgets(answerStop(anchor)) {
				s.add(t, fmt.Sprintf("HTTP %s budget=%d w=%d", c.name, b, w), post(mux, c.path, c.body(b)))
			}
		}
		srv.Close()
	}
}

// answerStop extracts the censoring anchor of an HTTP answer: a query's
// rounds, or an estimate's max sample.
func answerStop(answer string) int64 {
	var rounds int64
	if i := strings.Index(answer, `"rounds":`); i >= 0 {
		fmt.Sscan(strings.TrimRight(strings.SplitN(answer[i+9:], ",", 2)[0], "}"), &rounds)
		return rounds
	}
	if i := strings.LastIndex(answer, `"max":`); i >= 0 {
		var m float64
		fmt.Sscan(strings.SplitN(answer[i+6:], ",", 2)[0], &m)
		return int64(m)
	}
	return 0
}

func goldenCases(t *testing.T) []goldenCase {
	s := &goldenSet{seen: map[string]bool{}}
	addEngineCases(t, s)
	addEstimatorCases(t, s)
	addCorpusCases(t, s)
	addHTTPCases(t, s)
	return s.cases
}

// TestGoldenAnswers recomputes every golden case and requires its answer
// to match testdata/golden.txt byte for byte.
func TestGoldenAnswers(t *testing.T) {
	cases := goldenCases(t)
	if *updateGolden {
		var buf bytes.Buffer
		for _, c := range cases {
			fmt.Fprintf(&buf, "%s\t%s\n", c.id, c.answer)
		}
		if err := os.WriteFile(goldenFile, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden answers", len(cases))
		return
	}
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		id, ans, ok := strings.Cut(sc.Text(), "\t")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		want[id] = ans
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	mismatches := 0
	for _, c := range cases {
		w, ok := want[c.id]
		delete(want, c.id)
		switch {
		case !ok:
			t.Errorf("no golden answer for %q (got %q)", c.id, c.answer)
		case w != c.answer:
			t.Errorf("%s:\n got %s\nwant %s", c.id, c.answer, w)
		default:
			continue
		}
		if mismatches++; mismatches >= 20 {
			t.Fatal("too many mismatches")
		}
	}
	for id := range want {
		t.Errorf("golden answer %q was not produced", id)
	}
}
