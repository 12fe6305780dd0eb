// Package core implements the paper's primary contribution: measurement and
// analysis of the k-walk cover-time speed-up S^k(G) = C(G)/C^k(G). It ties
// the Monte Carlo estimators to the exact hitting-time machinery, evaluates
// every theoretical bound the paper states (Matthews, Baby Matthews /
// Theorem 13, Theorem 14, the Theorem 9 mixing bound, and the cycle bounds
// of Lemmas 21–22), and classifies measured speed-up curves into the
// regimes of Table 1 (linear, logarithmic, exponential, sub-linear).
package core

import (
	"fmt"
	"math"

	"manywalks/internal/stats"
	"manywalks/internal/walk"
)

// SpeedupPoint is one (k, S^k) measurement with full provenance.
type SpeedupPoint struct {
	K         int
	Single    walk.Estimate // Ĉ(G) from the chosen start
	Multi     walk.Estimate // Ĉ^k(G) from the chosen start
	Speedup   float64       // Single.Mean / Multi.Mean
	SpeedupLo float64       // conservative 95% band via CI endpoints
	SpeedupHi float64
	PerWalker float64 // Speedup / k: 1.0 means perfectly linear
	Truncated int     // trials (either estimate) that hit the budget
}

// ratioBand propagates the two 95% CIs through the quotient conservatively:
// the band endpoints pair the extremes of numerator and denominator.
func ratioBand(num, den walk.Estimate) (lo, mid, hi float64) {
	nm, nc := num.Mean(), num.CI95()
	dm, dc := den.Mean(), den.CI95()
	mid = nm / dm
	lowerDen := dm + dc
	upperDen := dm - dc
	if upperDen <= 0 {
		// Degenerate CI wider than the mean: report an unbounded band.
		return (nm - nc) / lowerDen, mid, math.Inf(1)
	}
	return (nm - nc) / lowerDen, mid, (nm + nc) / upperDen
}

// SpeedupCurve measures S^k for each k in ks on eng, re-using one
// single-walk estimate. C and every C^k run the engine's kernel, so S^k
// isolates the effect of parallelism from the effect of the step law. The
// same options (trials, step budget) serve every estimate; each C^k runs
// on a seed derived from opts.Seed and k, so it is independent of C. ks
// must be positive; duplicates are allowed (they re-measure).
func SpeedupCurve(eng *walk.Engine, start int32, ks []int, opts walk.MCOptions) ([]SpeedupPoint, error) {
	if len(ks) == 0 {
		return nil, fmt.Errorf("core: empty k list")
	}
	for _, k := range ks {
		if k < 1 {
			return nil, fmt.Errorf("core: invalid k=%d", k)
		}
	}
	single, err := eng.EstimateCover(start, 1, opts)
	if err != nil {
		return nil, err
	}
	points := make([]SpeedupPoint, 0, len(ks))
	for _, k := range ks {
		kOpts := opts
		kOpts.Seed = opts.Seed ^ 0x9e3779b97f4a7c15 ^ uint64(k)<<32
		multi, err := eng.EstimateCover(start, k, kOpts)
		if err != nil {
			return nil, err
		}
		lo, mid, hi := ratioBand(single, multi)
		points = append(points, SpeedupPoint{
			K:         k,
			Single:    single,
			Multi:     multi,
			Speedup:   mid,
			SpeedupLo: lo,
			SpeedupHi: hi,
			PerWalker: mid / float64(k),
			Truncated: single.Truncated + multi.Truncated,
		})
	}
	return points, nil
}

// Regime labels the asymptotic shape of a measured speed-up curve.
type Regime int

const (
	// RegimeUnknown is returned for curves that fit no template well.
	RegimeUnknown Regime = iota
	// RegimeLinear: S^k ≈ a·k (Table 1: complete graph, expanders, grids,
	// hypercube, ER graphs for small k).
	RegimeLinear
	// RegimeLogarithmic: S^k ≈ a·ln k + b (Table 1: cycle).
	RegimeLogarithmic
	// RegimeSuperlinear: S^k grows faster than k (barbell from the center).
	RegimeSuperlinear
)

// String names the regime.
func (r Regime) String() string {
	switch r {
	case RegimeLinear:
		return "linear"
	case RegimeLogarithmic:
		return "logarithmic"
	case RegimeSuperlinear:
		return "superlinear"
	default:
		return "unknown"
	}
}

// Classification reports the regime decision with the evidence used.
type Classification struct {
	Regime      Regime
	PowerSlope  float64 // exponent p of the S^k ≈ c·k^p fit
	PowerR2     float64
	LogFit      stats.LinearFit // S^k ≈ a·ln k + b
	LinearResid float64         // mean |S^k/k - median(S^k/k)| evidence
}

// ClassifySpeedups fits the measured curve against the paper's templates.
// The decision rule uses the log-log slope p of S^k vs k:
//
//	p ≥ superlinearThreshold        → superlinear
//	linearBand around 1             → linear
//	p small but curve still rising  → logarithmic (confirmed by log fit R²)
//
// At least three distinct k values are required.
func ClassifySpeedups(points []SpeedupPoint) (Classification, error) {
	if len(points) < 3 {
		return Classification{}, fmt.Errorf("core: need >= 3 points to classify, got %d", len(points))
	}
	ks := make([]float64, len(points))
	sp := make([]float64, len(points))
	for i, p := range points {
		if p.K <= 0 || p.Speedup <= 0 {
			return Classification{}, fmt.Errorf("core: non-positive point (k=%d, S=%v)", p.K, p.Speedup)
		}
		ks[i] = float64(p.K)
		sp[i] = p.Speedup
	}
	slope, _, r2 := stats.FitPowerLaw(ks, sp)
	logFit := stats.FitLogX(ks, sp)
	c := Classification{PowerSlope: slope, PowerR2: r2, LogFit: logFit}
	switch {
	case slope >= 1.35:
		c.Regime = RegimeSuperlinear
	case slope >= 0.65:
		c.Regime = RegimeLinear
	case slope >= 0.05 && logFit.Slope > 0:
		c.Regime = RegimeLogarithmic
	default:
		c.Regime = RegimeUnknown
	}
	return c, nil
}
