package graph

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"manywalks/internal/rng"
)

// TestParseSpecKinds pins every spec kind against its generator.
func TestParseSpecKinds(t *testing.T) {
	cases := []struct {
		spec string
		n    int
	}{
		{"cycle:16", 16},
		{"path:9", 9},
		{"complete:8", 8},
		{"complete:8:1", 8},
		{"complete:8:0", 8},
		{"star:7", 7},
		{"torus:5", 25},
		{"grid2d:4", 16},
		{"hypercube:4", 16},
		{"tree:2:3", 15},
		{"barbell:9", 9},
		{"lollipop:5:4", 9},
		{"margulis:6", 36},
		{"expander:6", 36},
		{"chords:11", 11},
		{" Cycle:16 ", 16}, // case/space insensitive
	}
	for _, c := range cases {
		g, err := ParseSpec(c.spec)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", c.spec, err)
		}
		if g.N() != c.n {
			t.Fatalf("ParseSpec(%q): n = %d, want %d", c.spec, g.N(), c.n)
		}
	}
	withLoops, _ := ParseSpec("complete:8:1")
	noLoops, _ := ParseSpec("complete:8:0")
	if withLoops.SelfLoops() != 8 || noLoops.SelfLoops() != 0 {
		t.Fatalf("complete loops flag: %d / %d self-loops", withLoops.SelfLoops(), noLoops.SelfLoops())
	}
}

// TestParseSpecErrors: malformed and out-of-range specs are errors, never
// panics — these strings arrive from daemon flags.
func TestParseSpecErrors(t *testing.T) {
	bad := []string{
		"",          // no kind
		"mobius:5",  // unknown kind
		"cycle",     // missing parameter
		"cycle:x",   // non-integer
		"cycle:0",   // non-positive
		"cycle:2",   // generator precondition (n >= 3) -> recovered panic
		"barbell:8", // barbell wants odd n
		"hypercube:40",
		"torus:1",
		"tree:1:3",
		"lollipop:1:1",
		"cycle:4:4", // parameter count
	}
	for _, spec := range bad {
		g, err := ParseSpec(spec)
		if err == nil {
			t.Fatalf("ParseSpec(%q) accepted (n=%d)", spec, g.N())
		}
		if !strings.Contains(err.Error(), "graph:") {
			t.Fatalf("ParseSpec(%q): undescriptive error %v", spec, err)
		}
	}
}

// TestBuildGraphFamilies builds every family of the commands' -graph flag
// (and one spec) at n = 32 and checks the default start is a vertex.
func TestBuildGraphFamilies(t *testing.T) {
	r := rng.New(1)
	for _, kind := range []string{"cycle", "path", "complete", "star", "wheel", "torus2d", "grid3d",
		"hypercube", "tree", "barbell", "lollipop", "expander", "chords", "er", "regular", "rgg", "margulis:6"} {
		g, start, err := BuildFamily(kind, 32, r)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if g.N() < 2 || int(start) >= g.N() {
			t.Fatalf("%s: degenerate graph n=%d start=%d", kind, g.N(), start)
		}
	}
	if _, _, err := BuildFamily("moebius", 32, r); err == nil || !strings.Contains(err.Error(), "unknown graph") {
		t.Fatalf("unknown kind: %v", err)
	}
}

// TestBuildFamilySmallN feeds every family the sizes a -n flag can carry
// below the generators' minimums: each must return an error or a graph a
// walk can run on (no isolated vertex), and must neither panic nor hang.
func TestBuildFamilySmallN(t *testing.T) {
	for _, kind := range []string{"cycle", "path", "complete", "star", "wheel", "torus2d", "grid3d",
		"hypercube", "tree", "barbell", "lollipop", "expander", "chords", "er", "regular", "rgg"} {
		for _, n := range []int{-1, 0, 1, 2, 3} {
			fail := make(chan string, 1)
			go func() {
				defer func() {
					if r := recover(); r != nil {
						fail <- fmt.Sprintf("panicked: %v", r)
					}
				}()
				g, _, err := BuildFamily(kind, n, rng.New(1))
				if err == nil {
					if min, _ := g.DegreeStats(); min == 0 {
						fail <- fmt.Sprintf("%s has an isolated vertex", g.Name())
						return
					}
				}
				fail <- ""
			}()
			select {
			case msg := <-fail:
				if msg != "" {
					t.Errorf("BuildFamily(%q, %d): %s", kind, n, msg)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("BuildFamily(%q, %d) did not return", kind, n)
			}
		}
	}
}
