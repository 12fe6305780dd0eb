package main

import (
	"strings"
	"testing"
)

// TestRunTinySweep drives the whole flag-to-sweep path on a tiny graph.
func TestRunTinySweep(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-graph", "complete", "-n", "12", "-kmax", "8", "-trials", "10", "-seed", "5"}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{"complete(12)", "S^k", "regime:"} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunFlagAndInputErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-h"}, &out); err != nil || !strings.Contains(out.String(), "-graph") {
		t.Fatalf("-h must print usage and succeed, got %v", err)
	}
	if err := run([]string{"-no-such-flag"}, &out); err == nil {
		t.Fatal("bad flag accepted")
	}
	if err := run([]string{"-graph", "moebius"}, &out); err == nil || !strings.Contains(err.Error(), "unknown graph") {
		t.Fatalf("bad graph kind: %v", err)
	}
}
