package main

import (
	"errors"
	"strings"
	"testing"
)

// TestRunOnlyCollab runs exactly one experiment (the cheapest) end to end
// through the real flag path.
func TestRunOnlyCollab(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-quick", "-trials", "20", "-only", "E-collab"}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{"E-collab", "E[meet]", "overall: PASS"} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "T1:") {
		t.Fatalf("-only E-collab must skip Table 1:\n%s", got)
	}
}

func TestRunFlagErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-h"}, &out); err != nil || !strings.Contains(out.String(), "-only") {
		t.Fatalf("-h must print usage and succeed, got %v", err)
	}
	if err := run([]string{"-no-such-flag"}, &out); err == nil {
		t.Fatal("bad flag accepted")
	}
	if err := run([]string{"-only", "definitely-no-such-id"}, &out); err == nil ||
		!strings.Contains(err.Error(), "no experiment ID matches") {
		t.Fatalf("unmatched -only: %v", err)
	}
}

// TestRunFamily pins the single-row mode against the output of the former
// table1 command: `table1 -quick -trials 40 -seed 5 -family cycle` printed
// exactly these lines. An unknown family is a usage error, not a suite
// failure, so main exits 2.
func TestRunFamily(t *testing.T) {
	const want = "" +
		"family cycle: n=64 C=2020 ± 4.5e+02 (n=40) hmax=1024 t_m=516 regime=logarithmic\n" +
		"  k=2    C^k=1030 ± 1.6e+02 (n=40)    S^k=1.96     S^k/k=0.98\n" +
		"  k=4    C^k=543.4 ± 62 (n=40)        S^k=3.72     S^k/k=0.93\n" +
		"  k=8    C^k=341.1 ± 35 (n=40)        S^k=5.92     S^k/k=0.74\n" +
		"  k=16   C^k=251.9 ± 24 (n=40)        S^k=8.02     S^k/k=0.50\n" +
		"  k=32   C^k=196.9 ± 18 (n=40)        S^k=10.26    S^k/k=0.32\n" +
		"  k=64   C^k=153.4 ± 10 (n=40)        S^k=13.16    S^k/k=0.21\n"
	var out strings.Builder
	if err := run([]string{"-quick", "-trials", "40", "-seed", "5", "-family", "cycle"}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if out.String() != want {
		t.Fatalf("-family cycle output:\n%s\nwant:\n%s", out.String(), want)
	}
	err := run([]string{"-family", "nope"}, &out)
	if err == nil || errors.Is(err, errSuiteFailed) || !strings.Contains(err.Error(), `unknown family "nope"`) {
		t.Fatalf("unknown family: got %v, want a usage error", err)
	}
	if err := run([]string{"-family", "cycle", "-only", "T1"}, &out); err == nil || errors.Is(err, errSuiteFailed) {
		t.Fatalf("-family with -only: got %v, want a usage error", err)
	}
}
