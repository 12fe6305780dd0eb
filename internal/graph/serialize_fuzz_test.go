package graph

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fuzzGraphsEqual compares everything both serializers promise to round-trip.
func fuzzGraphsEqual(t *testing.T, stage string, a, b *Graph) {
	t.Helper()
	if a.N() != b.N() || a.M() != b.M() || a.SelfLoops() != b.SelfLoops() {
		t.Fatalf("%s: shape mismatch: (%d,%d,%d) vs (%d,%d,%d)",
			stage, a.N(), a.M(), a.SelfLoops(), b.N(), b.M(), b.SelfLoops())
	}
	if a.Name() != b.Name() {
		t.Fatalf("%s: name %q != %q", stage, a.Name(), b.Name())
	}
	if a.Weighted() != b.Weighted() {
		t.Fatalf("%s: weightedness mismatch", stage)
	}
	ao, aa := a.CSR()
	bo, ba := b.CSR()
	if !bytes.Equal(int32Bytes(ao), int32Bytes(bo)) || !bytes.Equal(int32Bytes(aa), int32Bytes(ba)) {
		t.Fatalf("%s: CSR mismatch", stage)
	}
	if a.Weighted() {
		aw, bw := a.CSRWeights(), b.CSRWeights()
		for i := range aw {
			if aw[i] != bw[i] {
				t.Fatalf("%s: weight[%d] %v != %v", stage, i, aw[i], bw[i])
			}
		}
	}
}

func int32Bytes(s []int32) []byte {
	out := make([]byte, 0, len(s)*4)
	for _, v := range s {
		out = append(out, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return out
}

// FuzzSerializeRoundTrip feeds arbitrary text to the edge-list parser;
// every graph it accepts must survive an edge-list round trip AND a
// binary-v2 round trip bit for bit — including a fuzzed name, which is how
// the header escaping for control-character names was shaken out.
func FuzzSerializeRoundTrip(f *testing.F) {
	var seedEL bytes.Buffer
	if err := Cycle(5).WriteEdgeList(&seedEL); err != nil {
		f.Fatal(err)
	}
	f.Add(seedEL.String(), "cycle(5)")
	f.Add("# name weighted\n3 3\n0 1 2.5\n1 2 0.25\n0 2 1e-3\n", "w")
	f.Add("2 1\n0 0\n", "self loop")
	f.Add("3 2\n0 1\n0 1\n", "dup edge")
	f.Fuzz(func(t *testing.T, input, name string) {
		if len(input) > 1<<16 || len(name) > 256 {
			t.Skip("oversized input")
		}
		g, err := ReadEdgeList(strings.NewReader(input))
		if err != nil {
			return // rejected input is fine; it just must not panic
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("parser accepted an invalid graph: %v", err)
		}
		g.SetName(name)

		var el bytes.Buffer
		if err := g.WriteEdgeList(&el); err != nil {
			t.Fatalf("write edge list: %v", err)
		}
		g2, err := ReadEdgeList(&el)
		if err != nil {
			t.Fatalf("reparse edge list: %v\n%s", err, el.String())
		}
		fuzzGraphsEqual(t, "edge list", g, g2)

		var bin bytes.Buffer
		if err := g.WriteBinary(&bin); err != nil {
			t.Fatalf("write binary: %v", err)
		}
		g3, err := ReadBinary(&bin)
		if err != nil {
			t.Fatalf("reparse binary: %v", err)
		}
		fuzzGraphsEqual(t, "binary", g, g3)
	})
}

// FuzzBinaryParse feeds arbitrary bytes to the binary-v2 reader: it must
// reject garbage with an error — never panic, and never allocate
// proportionally to a declared-but-absent payload — and anything it
// accepts must round-trip bit for bit.
func FuzzBinaryParse(f *testing.F) {
	for _, g := range []*Graph{Cycle(6), Complete(4, true), Reweight(Torus2D(3), func(u, v int32) float64 {
		return 1 + float64(u+v)
	})} {
		var buf bytes.Buffer
		if err := g.WriteBinary(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip("oversized input")
		}
		g, err := ReadBinary(bytes.NewReader(data))

		// The mmap-backed path must agree with the heap reader on every
		// input: same accept/reject decision, identical graph on accept.
		path := filepath.Join(t.TempDir(), "fuzz.mwal")
		if werr := os.WriteFile(path, data, 0o644); werr != nil {
			t.Fatal(werr)
		}
		mg, merr := OpenBinary(path)
		if (err == nil) != (merr == nil) {
			t.Fatalf("OpenBinary err=%v, ReadBinary err=%v: accept/reject mismatch", merr, err)
		}
		if err != nil {
			return
		}
		fuzzGraphsEqual(t, "mapped", g, mg)
		if rerr := mg.Release(); rerr != nil {
			t.Fatalf("Release: %v", rerr)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("reader accepted an invalid graph: %v", err)
		}
		var buf bytes.Buffer
		if err := g.WriteBinary(&buf); err != nil {
			t.Fatalf("rewrite: %v", err)
		}
		g2, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("reparse: %v", err)
		}
		fuzzGraphsEqual(t, "binary", g, g2)
	})
}
