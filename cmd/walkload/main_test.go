package main

import (
	"errors"
	"strings"
	"testing"
)

// TestRunTinyLoad drives the whole flag-to-report path with a small shape
// in both modes, which also exercises the bit-for-bit verification.
func TestRunTinyLoad(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-graph", "margulis:8", "-clients", "8", "-queries", "4",
		"-k", "2", "-ttl", "4096", "-targets", "40,50", "-seed", "3",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{"naive", "coalesced", "bit-for-bit", "speedup:", "lat p50", "p95", "p99"} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}

// TestRunAdaptiveMode drives -mode adaptive end to end on a tiny shape and
// checks the time-to-tolerance report.
func TestRunAdaptiveMode(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-graph", "margulis:8", "-mode", "adaptive", "-clients", "4",
		"-k", "4", "-ttl", "65536", "-trials", "512", "-rtol", "0.2", "-seed", "9",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{"fixed", "adaptive", "time-to-tolerance", "rtol=0.2", "lat p50", "converged"} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}

// TestRunClusterMode drives -mode cluster end to end: an in-process
// 3-replica fleet behind the shape-affinity router, mixed-shape traffic
// with shadow verification on, and the bit-for-bit check against the
// standalone computation.
func TestRunClusterMode(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-graph", "margulis:8", "-mode", "cluster", "-clients", "9", "-queries", "4",
		"-ttl", "4096", "-replicas", "3", "-shapes", "3", "-shadow", "2", "-seed", "5",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"policy=affinity replicas=3", "unrouted=0", "shadow_mismatches=0",
		"replica 0:", "replica 2:", "verify: all 36 cluster answers bit-for-bit",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
	if !strings.Contains(got, "shadow_checks=") || strings.Contains(got, "shadow_checks=0") {
		t.Fatalf("shadow sampling did not run:\n%s", got)
	}

	// Round-robin over the same fleet must spread one shape across replicas.
	out.Reset()
	err = run([]string{
		"-graph", "margulis:8", "-mode", "cluster", "-clients", "6", "-queries", "3",
		"-ttl", "4096", "-replicas", "2", "-shapes", "1", "-policy", "roundrobin", "-seed", "5",
	}, &out)
	if err != nil {
		t.Fatalf("roundrobin run: %v\n%s", err, out.String())
	}
	if got := out.String(); !strings.Contains(got, "policy=roundrobin") ||
		strings.Contains(got, "requests=0 ") {
		t.Fatalf("round-robin left a replica idle:\n%s", got)
	}
}

func TestRunFlagErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-h"}, &out); err != nil || !strings.Contains(out.String(), "-clients") {
		t.Fatalf("-h must print usage, got %v", err)
	}
	for _, bad := range [][]string{
		{"-graph", "nope:1"},
		{"-mode", "sideways"},
		{"-targets", "x"},
		{"-clients", "0"},
		{"-mode", "cluster", "-replicas", "0"},
		{"-mode", "cluster", "-shapes", "0"},
		{"-mode", "cluster", "-shadow", "-1"},
		{"-mode", "cluster", "-policy", "random"},
	} {
		if err := run(bad, &out); err == nil {
			t.Fatalf("args %v accepted", bad)
		}
	}
}

// TestRunRejectsBadQueryShape pins input validation ahead of the load: the
// standalone baseline does not validate, so a vertex outside the graph, a
// non-positive k or TTL, a kernel the graph rejects, or an adaptive
// precision the estimators cannot run must be a usage error (exit 2)
// before any query or estimate runs.
func TestRunRejectsBadQueryShape(t *testing.T) {
	for _, bad := range [][]string{
		{"-origin", "9999"},
		{"-origin", "-1"},
		{"-targets", "9999"},
		{"-targets", "40,-3"},
		{"-k", "0"},
		{"-ttl", "0"},
		{"-graph", "cycle:4096", "-kernel", "hopper:power"},
		{"-mode", "adaptive", "-origin", "9999"},
		{"-mode", "adaptive", "-rtol", "0"},
		{"-mode", "adaptive", "-rtol", "-0.1"},
		{"-mode", "adaptive", "-trials", "0"},
		{"-mode", "adaptive", "-confidence", "1.5"},
		{"-mode", "cluster", "-k", "0"},
	} {
		var out strings.Builder
		args := append([]string{"-graph", "margulis:8", "-clients", "2", "-queries", "1", "-ttl", "64"}, bad...)
		if err := run(args, &out); !errors.Is(err, errUsage) {
			t.Fatalf("args %v: got %v, want a usage error", bad, err)
		}
		if strings.Contains(out.String(), "queries in") || strings.Contains(out.String(), "estimates x") {
			t.Fatalf("args %v: load ran before the usage error:\n%s", bad, out.String())
		}
	}
}
