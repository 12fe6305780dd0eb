package dynamic

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"manywalks/internal/graph"
	"manywalks/internal/rng"
	"manywalks/internal/walk"
)

func TestMutableGraphBasics(t *testing.T) {
	mg := FromGraph(graph.Cycle(5))
	if mg.N() != 5 || mg.M() != 5 {
		t.Fatalf("N=%d M=%d", mg.N(), mg.M())
	}
	if !mg.HasEdge(0, 1) || mg.HasEdge(0, 2) {
		t.Fatal("edge queries wrong")
	}
	if !mg.AddEdge(0, 2) || mg.AddEdge(0, 2) {
		t.Fatal("AddEdge semantics")
	}
	if mg.M() != 6 || mg.Degree(0) != 3 {
		t.Fatal("counts after add")
	}
	if !mg.RemoveEdge(0, 2) || mg.RemoveEdge(0, 2) {
		t.Fatal("RemoveEdge semantics")
	}
	if mg.M() != 5 || mg.Degree(0) != 2 {
		t.Fatal("counts after remove")
	}
	if !mg.IsConnected() {
		t.Fatal("cycle should stay connected")
	}
	mg.RemoveEdge(0, 1)
	mg.RemoveEdge(0, 4)
	if mg.IsConnected() {
		t.Fatal("isolated vertex 0 not detected")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	orig := graph.Torus2D(4)
	mg := FromGraph(orig)
	snap := mg.Snapshot("snap")
	if snap.N() != orig.N() || snap.M() != orig.M() {
		t.Fatal("snapshot size mismatch")
	}
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
	for v := int32(0); v < int32(orig.N()); v++ {
		for _, u := range orig.Neighbors(v) {
			if !snap.HasEdge(v, u) {
				t.Fatalf("snapshot lost edge (%d,%d)", v, u)
			}
		}
	}
}

func TestRandomEdgeIsUniformish(t *testing.T) {
	// On a star all edges touch the hub: edge (0,leaf) chosen ∝ leaves'
	// slots; every leaf appears.
	mg := FromGraph(graph.Star(6))
	r := rng.New(3)
	seen := map[int32]bool{}
	for i := 0; i < 500; i++ {
		u, v := mg.RandomEdge(r)
		if !mg.HasEdge(u, v) {
			t.Fatal("RandomEdge returned a non-edge")
		}
		if u == 0 {
			seen[v] = true
		} else {
			seen[u] = true
		}
	}
	if len(seen) != 5 {
		t.Fatalf("edges seen %d, want all 5", len(seen))
	}
}

func TestSwapChurnerPreservesDegrees(t *testing.T) {
	check := func(seed uint16) bool {
		r := rng.NewStream(uint64(seed), 1)
		g, err := graph.ConnectedRandomRegular(24, 4, r, 200)
		if err != nil {
			return false
		}
		mg := FromGraph(g)
		before := make([]int, mg.N())
		for v := range before {
			before[v] = mg.Degree(int32(v))
		}
		SwapChurner{SwapsPerRound: 20}.Churn(mg, r)
		for v := range before {
			if mg.Degree(int32(v)) != before[v] {
				return false
			}
		}
		// Structure must remain a simple graph.
		return mg.Snapshot("x").Validate() == nil && mg.M() == g.M()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSwapChurnerActuallyRewires(t *testing.T) {
	r := rng.New(5)
	g, err := graph.ConnectedRandomRegular(32, 4, r, 200)
	if err != nil {
		t.Fatal(err)
	}
	mg := FromGraph(g)
	SwapChurner{SwapsPerRound: 50}.Churn(mg, r)
	changed := 0
	for v := int32(0); v < int32(g.N()); v++ {
		for _, u := range g.Neighbors(v) {
			if u > v && !mg.HasEdge(v, u) {
				changed++
			}
		}
	}
	if changed == 0 {
		t.Fatal("churner made no changes in 50 swap attempts")
	}
}

func TestKCoverUnderNopChurnMatchesStatic(t *testing.T) {
	// With the nop churner the process is exactly the static k-walk; the
	// means must agree within CI.
	g := graph.Torus2D(6)
	opts := walk.MCOptions{Trials: 500, Seed: 9, MaxSteps: 1 << 22}
	churned, err := EstimateKCoverUnderChurn(g, 0, 4, NopChurner{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	static, err := walk.EstimateKCoverTime(g, 0, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	diff := churned.Mean() - static.Mean()
	if diff < 0 {
		diff = -diff
	}
	if diff > churned.CI95()+static.CI95() {
		t.Fatalf("nop churn %v vs static %v", churned.Mean(), static.Mean())
	}
}

func TestCoverSurvivesChurn(t *testing.T) {
	// Degree-preserving churn on a random regular graph must leave the
	// k-walk able to cover, with cover time within a small factor of static
	// — the paper's robustness claim, quantified.
	r := rng.New(11)
	g, err := graph.ConnectedRandomRegular(128, 4, r, 300)
	if err != nil {
		t.Fatal(err)
	}
	opts := walk.MCOptions{Trials: 300, Seed: 13, MaxSteps: 1 << 22}
	static, err := EstimateKCoverUnderChurn(g, 0, 4, NopChurner{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	churned, err := EstimateKCoverUnderChurn(g, 0, 4, SwapChurner{SwapsPerRound: 4}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if churned.Truncated > 0 {
		t.Fatalf("%d trials failed to cover under churn", churned.Truncated)
	}
	ratio := churned.Mean() / static.Mean()
	if ratio > 1.5 || ratio < 0.5 {
		t.Fatalf("churn changed cover time by %vx — robustness violated", ratio)
	}
}

func TestKCoverUnderChurnValidation(t *testing.T) {
	g := graph.Cycle(8)
	if _, err := EstimateKCoverUnderChurn(g, 0, 0, NopChurner{}, walk.MCOptions{Trials: 2, MaxSteps: 10}); err == nil {
		t.Fatal("k=0 accepted")
	}
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	if _, err := EstimateKCoverUnderChurn(b.Build("disc"), 0, 1, NopChurner{}, walk.MCOptions{Trials: 2, MaxSteps: 10}); err == nil {
		t.Fatal("disconnected accepted")
	}
	// An out-of-range start is an error naming the vertex, never an index
	// panic inside a Monte Carlo worker goroutine, which no caller could
	// recover.
	for _, start := range []int32{99, -1} {
		_, err := EstimateKCoverUnderChurn(g, start, 2, NopChurner{}, walk.MCOptions{Trials: 2, MaxSteps: 10})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprint(start)) {
			t.Fatalf("start %d: want an out-of-range error naming it, got %v", start, err)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("k=0 panic missing")
		}
	}()
	KCoverUnderChurn(g, 0, 0, NopChurner{}, rng.New(1), 10)
}

func TestWalkerStrandedByChurnWaits(t *testing.T) {
	// A churner that strands the walker must not crash the simulation; the
	// walker waits and the trial truncates.
	g := graph.Path(3)
	isolator := churnFunc(func(mg *MutableGraph, r *rng.Source) {
		mg.RemoveEdge(0, 1)
		mg.RemoveEdge(1, 2)
	})
	res := KCoverUnderChurn(g, 1, 1, isolator, rng.New(1), 50)
	if res.Covered {
		t.Fatal("covered an unreachable graph")
	}
	if res.Steps != 50 {
		t.Fatalf("steps %d", res.Steps)
	}
}

type churnFunc func(mg *MutableGraph, r *rng.Source)

func (f churnFunc) Churn(mg *MutableGraph, r *rng.Source) { f(mg, r) }
