package graph

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestStreamingDuplicatesAndLoops feeds the edge-list reader raw text with
// duplicate edges (both orientations), a repeated self-loop, and mixed
// weighted/unweighted lines, and checks how they coalesce.
func TestStreamingDuplicatesAndLoops(t *testing.T) {
	const body = `5 7
0 1 1.5
1 0 2.5
2 2 0.75
2 2 0.25
3 4
4 3 2
0 2
`
	got, err := ReadEdgeList(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	if got.M() != 4 {
		t.Fatalf("M=%d, want 4 after coalescing", got.M())
	}
	if w := got.EdgeWeight(0, 0); w != 4 {
		t.Fatalf("coalesced weight of {0,1} = %v, want 4", w)
	}
	if w := got.EdgeWeight(2, got.Degree(2)-1); w != 1 {
		// {2,2} loop 0.75+0.25; {0,2} plain carries weight 1.
		t.Fatalf("weights after coalescing wrong: %v", w)
	}
}

// TestStreamingRejectsBadInput checks the edge-list reader's error cases.
func TestStreamingRejectsBadInput(t *testing.T) {
	for _, body := range []string{
		"",                    // missing header
		"2\n",                 // short header
		"2 1\n",               // promised edge missing
		"2 1\n0 1\n0 1\n",     // extra edge
		"2 1\n0 2\n",          // out of range
		"2 1\n0 1 0\n",        // zero weight
		"2 1\n0 1 NaN\n",      // NaN weight
		"-1 0\n",              // negative n
		"2 -1\n",              // negative m
		"2 1\n0 4294967297\n", // wraps to 1 in 32 bits
	} {
		if _, err := ReadEdgeList(strings.NewReader(body)); err == nil {
			t.Fatalf("input %q should be rejected", body)
		}
	}
}

// TestHeaderLimits pins the 32-bit hardening satellites: synthetic headers
// declaring vertex or edge counts past the int32 CSR limits must fail with
// descriptive errors before any allocation or edge parsing happens.
func TestHeaderLimits(t *testing.T) {
	cases := []struct {
		body string
		want string
	}{
		{fmt.Sprintf("%d 0\n", int64(1)<<31), "exceeds the reader limit"},
		{fmt.Sprintf("%d 0\n", maxSerializedVertices+1), "exceeds the reader limit"},
		{fmt.Sprintf("4 %d\n", int64(1)<<31), "int32 adjacency limit"},
		{fmt.Sprintf("4 %d\n", maxSerializedEdges+1), "int32 adjacency limit"},
	}
	for _, c := range cases {
		_, err := ReadEdgeList(strings.NewReader(c.body))
		if err == nil {
			t.Fatalf("header %q should be rejected", c.body)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("header %q: error %q does not mention %q", c.body, err, c.want)
		}
	}
}

// TestBinaryHeaderVertexLimit hand-crafts a binary header whose vertex-count
// word exceeds the reader limit and checks both binary readers reject it
// descriptively without trying to allocate the offsets array.
func TestBinaryHeaderVertexLimit(t *testing.T) {
	var buf bytes.Buffer
	le := binary.LittleEndian
	var word [4]byte
	for _, v := range []uint32{binaryMagic, binaryVersion, 0, 0, maxSerializedVertices + 1} {
		le.PutUint32(word[:], v)
		buf.Write(word[:])
	}
	raw := buf.Bytes()
	if _, err := ReadBinary(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "exceeds the reader limit") {
		t.Fatalf("ReadBinary error = %v, want reader-limit rejection", err)
	}
	path := filepath.Join(t.TempDir(), "huge.mwal")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenBinary(path); err == nil || !strings.Contains(err.Error(), "exceeds the reader limit") {
		t.Fatalf("OpenBinary error = %v, want reader-limit rejection", err)
	}
}

// TestNewBuilderVertexLimit checks the Builder-side guard.
func TestNewBuilderVertexLimit(t *testing.T) {
	if int64(int(^uint(0)>>1)) <= int64(MaxVertices) {
		t.Skip("32-bit int platform cannot express n > MaxVertices")
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("NewBuilder should panic past MaxVertices")
		}
		if !strings.Contains(fmt.Sprint(r), "int32 CSR limit") {
			t.Fatalf("panic %v does not mention the int32 CSR limit", r)
		}
	}()
	NewBuilder(int(int64(MaxVertices) + 1))
}

// TestBuilderAddErrors checks the error-returning add behind AddEdge,
// AddWeightedEdge and ReadEdgeList: out-of-range endpoints and invalid
// weights are rejected and leave the builder unchanged.
func TestBuilderAddErrors(t *testing.T) {
	b := NewBuilder(3)
	for _, c := range []struct {
		u, v     int32
		w        float64
		weighted bool
	}{
		{0, 3, 1, false},
		{-1, 0, 1, false},
		{0, 1, 0, true},
		{0, 1, math.NaN(), true},
		{0, 1, math.Inf(1), true},
	} {
		if err := b.add(c.u, c.v, c.w, c.weighted); err == nil {
			t.Fatalf("add(%d,%d,%v,%v) should be rejected", c.u, c.v, c.w, c.weighted)
		}
	}
	if b.EdgeCount() != 0 || b.wts != nil {
		t.Fatalf("rejected edges were recorded: %d edges, weights %v", b.EdgeCount(), b.wts)
	}
}

// writeBinaryV2 encodes g in the retired version-2 layout (no alignment
// padding) so the compat path of ReadBinary stays covered after the writer
// moved to v3.
func writeBinaryV2(t *testing.T, g *Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	le := binary.LittleEndian
	flags := uint32(0)
	if g.Weighted() {
		flags |= binaryFlagWeighted
	}
	var word [4]byte
	for _, v := range []uint32{binaryMagic, binaryVersionV2, flags, uint32(len(g.Name()))} {
		le.PutUint32(word[:], v)
		buf.Write(word[:])
	}
	buf.WriteString(g.Name())
	le.PutUint32(word[:], uint32(g.N()))
	buf.Write(word[:])
	if err := writeInt32sLE(&buf, g.offsets); err != nil {
		t.Fatal(err)
	}
	if err := writeInt32sLE(&buf, g.adj); err != nil {
		t.Fatal(err)
	}
	if g.Weighted() {
		if err := writeFloat64sLE(&buf, g.weights); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestReadBinaryV2Compat checks the reader still parses the padless v2
// layout, including via OpenBinary's fallback (v2 is never mappable).
func TestReadBinaryV2Compat(t *testing.T) {
	for _, g := range []*Graph{MargulisExpander(4), weightedTestGraph(t), Cycle(5)} {
		raw := writeBinaryV2(t, g)
		got, err := ReadBinary(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		sameGraph(t, got, g)
		path := filepath.Join(t.TempDir(), "v2.mwal")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		opened, err := OpenBinary(path)
		if err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		if opened.Mapped() {
			t.Fatalf("%s: v2 payload must not be mapped", g.Name())
		}
		sameGraph(t, opened, g)
	}
}

// TestOpenBinaryMapped round-trips graphs through a v3 file and OpenBinary,
// checking the mapped fast path engages on linux, the mapped view equals the
// heap read, and Release tears the mapping down.
func TestOpenBinaryMapped(t *testing.T) {
	for _, g := range []*Graph{
		MargulisExpander(6),
		weightedTestGraph(t),
		Cycle(3),
		NewBuilder(4).Build("empty(4)"), // edgeless: zero-length adjacency
	} {
		var buf bytes.Buffer
		if err := g.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "g.mwal")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := OpenBinary(path)
		if err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		if runtime.GOOS == "linux" && !got.Mapped() {
			t.Fatalf("%s: expected the mmap fast path on linux", g.Name())
		}
		sameGraph(t, got, g)
		if err := got.Validate(); err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		if err := got.Release(); err != nil {
			t.Fatalf("%s: Release: %v", g.Name(), err)
		}
		if got.Mapped() {
			t.Fatalf("%s: still mapped after Release", g.Name())
		}
		if err := got.Release(); err != nil {
			t.Fatalf("%s: second Release must be a no-op, got %v", g.Name(), err)
		}
	}
}

// TestOpenSniffsFormat checks Open routes binary payloads to the binary
// reader and everything else to ReadEdgeList.
func TestOpenSniffsFormat(t *testing.T) {
	g := Torus2D(6)
	dir := t.TempDir()

	binPath := filepath.Join(dir, "g.bin")
	var bin bytes.Buffer
	if err := g.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(binPath, bin.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	fromBin, err := Open(binPath)
	if err != nil {
		t.Fatal(err)
	}
	defer fromBin.Release()
	sameGraph(t, fromBin, g)

	txtPath := filepath.Join(dir, "g.txt")
	var txt bytes.Buffer
	if err := g.WriteEdgeList(&txt); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(txtPath, txt.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	fromTxt, err := Open(txtPath)
	if err != nil {
		t.Fatal(err)
	}
	if fromTxt.Mapped() {
		t.Fatal("text ingest must not be mapped")
	}
	sameGraph(t, fromTxt, g)

	if _, err := Open(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing file should error")
	}
}

// TestOpenBinaryTruncated checks a truncated v3 payload fails cleanly on
// both the mapped and heap paths rather than slicing past the mapping.
func TestOpenBinaryTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := MargulisExpander(5).WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, cut := range []int{len(raw) - 1, len(raw) / 2, 24} {
		path := filepath.Join(t.TempDir(), "trunc.mwal")
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenBinary(path); err == nil {
			t.Fatalf("truncation at %d should error", cut)
		}
	}
}

// TestSerializedLimitsConsistent pins the relationship between the header
// bounds and the CSR bounds: every accepted header (m <= maxSerializedEdges,
// each edge contributing at most two adjacency entries) must fit the int32
// adjacency, so the build-time overflow panics are pure defense in depth and
// a synthetic header is rejected before any per-edge work.
func TestSerializedLimitsConsistent(t *testing.T) {
	if worst := int64(2) * int64(maxSerializedEdges); worst > math.MaxInt32 {
		t.Fatalf("worst-case accepted adjacency %d exceeds MaxInt32; header bound too loose", worst)
	}
	if int64(maxSerializedVertices) > int64(MaxVertices) {
		t.Fatal("reader vertex limit must not exceed the CSR vertex limit")
	}
}
