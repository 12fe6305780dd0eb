package walk

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"manywalks/internal/graph"
	"manywalks/internal/rng"
)

// corpusTestKernels returns the five kernels against graphs they run on.
func corpusTestKernels() []struct {
	name   string
	g      *graph.Graph
	kernel Kernel
} {
	base := graph.MargulisExpander(4) // n=16, 8-regular: every kernel is valid
	wg := graph.Reweight(base, func(u, v int32) float64 { return float64(u+v) + 1.5 })
	return []struct {
		name   string
		g      *graph.Graph
		kernel Kernel
	}{
		{"uniform", base, Uniform()},
		{"lazy", base, Lazy(0.3)},
		{"weighted", wg, Weighted()},
		{"noback", base, NoBacktrack()},
		{"metropolis", base, MetropolisUniform()},
	}
}

func corpusBytes(t *testing.T, g *graph.Graph, opts EngineOptions, spec CorpusSpec) []byte {
	t.Helper()
	var buf bytes.Buffer
	stats, err := NewEngine(g, opts).GenerateCorpus(spec, &buf)
	if err != nil {
		t.Fatal(err)
	}
	wantWalks := int64(g.N()) * int64(spec.WalksPerVertex)
	if stats.Walks != wantWalks || stats.Steps != wantWalks*int64(spec.Length) {
		t.Fatalf("stats (%d,%d), want (%d,%d)", stats.Walks, stats.Steps, wantWalks, wantWalks*int64(spec.Length))
	}
	return buf.Bytes()
}

// TestCorpusDeterminism pins the central corpus invariant: for every kernel,
// the emitted bytes are identical across Workers and BatchRounds, in both
// formats.
func TestCorpusDeterminism(t *testing.T) {
	for _, kc := range corpusTestKernels() {
		for _, format := range []CorpusFormat{CorpusText, CorpusBinary} {
			spec := CorpusSpec{WalksPerVertex: 3, Length: 17, Seed: 0x5eed0000 + uint64(format), Format: format}
			baseline := corpusBytes(t, kc.g, EngineOptions{Workers: 1, Kernel: kc.kernel}, spec)
			for _, workers := range []int{1, 4} {
				for _, batch := range []int{0, 5} {
					got := corpusBytes(t, kc.g, EngineOptions{Workers: workers, BatchRounds: batch, Kernel: kc.kernel}, spec)
					if !bytes.Equal(got, baseline) {
						t.Fatalf("%s/format=%d: corpus bytes differ at workers=%d batch=%d", kc.name, format, workers, batch)
					}
				}
			}
		}
	}
}

// decodeCorpusText parses the CorpusText format into walks.
func decodeCorpusText(t *testing.T, raw []byte) (CorpusHeader, [][]int32) {
	t.Helper()
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	if !sc.Scan() || sc.Text() != "# manywalks corpus" {
		t.Fatalf("missing corpus comment line, got %q", sc.Text())
	}
	if !sc.Scan() {
		t.Fatal("missing corpus header")
	}
	var h CorpusHeader
	if _, err := fmt.Sscanf(sc.Text(), "%d %d %d", &h.N, &h.WalksPerVertex, &h.Length); err != nil {
		t.Fatalf("bad corpus header %q: %v", sc.Text(), err)
	}
	var walks [][]int32
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != h.Length+1 {
			t.Fatalf("walk %d has %d vertices, want %d", len(walks), len(fields), h.Length+1)
		}
		walk := make([]int32, len(fields))
		for j, f := range fields {
			v, err := strconv.Atoi(f)
			if err != nil {
				t.Fatal(err)
			}
			walk[j] = int32(v)
		}
		walks = append(walks, walk)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return h, walks
}

// decodeCorpusBinary loads all walks of a CorpusBinary stream.
func decodeCorpusBinary(t *testing.T, raw []byte) (CorpusHeader, [][]int32) {
	t.Helper()
	var walks [][]int32
	h, err := ScanCorpusBinary(bytes.NewReader(raw), func(walk []int32) error {
		walks = append(walks, append([]int32(nil), walk...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return h, walks
}

// TestCorpusFormatsAgree checks the text and binary encodings carry the
// same walks.
func TestCorpusFormatsAgree(t *testing.T) {
	g := graph.MargulisExpander(4)
	spec := CorpusSpec{WalksPerVertex: 2, Length: 9, Seed: 99}
	text := corpusBytes(t, g, EngineOptions{Workers: 2}, spec)
	spec.Format = CorpusBinary
	bin := corpusBytes(t, g, EngineOptions{Workers: 2}, spec)

	th, tw := decodeCorpusText(t, text)
	bh, bw := decodeCorpusBinary(t, bin)
	if th != bh {
		t.Fatalf("headers differ: %+v vs %+v", th, bh)
	}
	if len(tw) != len(bw) {
		t.Fatalf("%d text walks vs %d binary walks", len(tw), len(bw))
	}
	for i := range tw {
		if !bytes.Equal(int32Bytes(tw[i]), int32Bytes(bw[i])) {
			t.Fatalf("walk %d differs between formats: %v vs %v", i, tw[i], bw[i])
		}
	}
}

// int32Bytes packs an int32 slice for cheap equality checks.
func int32Bytes(s []int32) []byte {
	out := make([]byte, 0, len(s)*4)
	for _, v := range s {
		out = append(out, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return out
}

// sequentialWalk reproduces global walk t as the standalone walk
// documented on CorpusSpec.Seed — one walker from the walk's vertex, engine
// seed drawn from the walk's trial stream, run to the horizon — through the
// independent draw-discipline replay.
func sequentialWalk(t *testing.T, e *Engine, spec CorpusSpec, trial int64) []int32 {
	t.Helper()
	var src rng.Source
	src.Reseed(rng.StreamSeed(spec.Seed, uint64(trial)))
	engineSeed := src.Uint64()
	v := int32(trial / int64(spec.WalksPerVertex))
	return append([]int32{v}, replayKernelWalk(t, e, v, engineSeed, 0, int64(spec.Length))...)
}

// TestCorpusMatchesSequentialWalks pins every corpus walk against the
// replay of the standalone walk with the same derivation — the bit-for-bit
// equivalence the corpus promises — for a uniform and a non-uniform kernel.
func TestCorpusMatchesSequentialWalks(t *testing.T) {
	for _, kc := range corpusTestKernels() {
		if kc.name != "uniform" && kc.name != "noback" {
			continue
		}
		spec := CorpusSpec{WalksPerVertex: 2, Length: 33, Seed: 7, Format: CorpusBinary}
		_, walks := decodeCorpusBinary(t, corpusBytes(t, kc.g, EngineOptions{Workers: 4, Kernel: kc.kernel}, spec))
		seq := NewEngine(kc.g, EngineOptions{Workers: 1, Kernel: kc.kernel})
		for trial, walk := range walks {
			want := sequentialWalk(t, seq, spec, int64(trial))
			if !bytes.Equal(int32Bytes(walk), int32Bytes(want)) {
				t.Fatalf("%s: corpus walk %d = %v, replay = %v", kc.name, trial, walk, want)
			}
			if v := int32(trial / spec.WalksPerVertex); walk[0] != v {
				t.Fatalf("%s: walk %d starts at %d, want vertex %d", kc.name, trial, walk[0], v)
			}
		}
	}
}

// TestCorpusMultiWave forces the wave loop to split (a long Length shrinks
// the per-wave lane cap below the walk count) and checks the output is
// byte-identical to the single-worker run and still matches the replayed
// walks across the wave boundary — wave size must never leak into the
// corpus.
func TestCorpusMultiWave(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-wave corpus is a few million steps")
	}
	g := graph.MargulisExpander(2) // n = 4
	const length = 1 << 17         // rowCells 131073 -> wave = 4M/131073 = 31 lanes
	spec := CorpusSpec{WalksPerVertex: 16, Length: length, Seed: 21, Format: CorpusBinary}
	// 64 walks, wave 31: three waves with boundaries at walks 31 and 62.
	baseline := corpusBytes(t, g, EngineOptions{Workers: 1}, spec)
	if got := corpusBytes(t, g, EngineOptions{Workers: 4}, spec); !bytes.Equal(got, baseline) {
		t.Fatal("multi-wave corpus differs across Workers")
	}
	_, walks := decodeCorpusBinary(t, baseline)
	if len(walks) != 64 {
		t.Fatalf("%d walks, want 64", len(walks))
	}
	seq := NewEngine(g, EngineOptions{Workers: 1})
	for _, trial := range []int64{0, 30, 31, 61, 62, 63} {
		want := sequentialWalk(t, seq, spec, trial)
		if !bytes.Equal(int32Bytes(walks[trial]), int32Bytes(want)) {
			t.Fatalf("walk %d differs from its replay at a wave boundary", trial)
		}
	}
}

// TestCorpusProgress checks the progress callback is monotone and complete.
func TestCorpusProgress(t *testing.T) {
	g := graph.MargulisExpander(4)
	var calls []int64
	spec := CorpusSpec{WalksPerVertex: 2, Length: 5, Seed: 1, Progress: func(done, total int64) {
		if total != 32 {
			t.Fatalf("total %d, want 32", total)
		}
		calls = append(calls, done)
	}}
	var buf bytes.Buffer
	if _, err := NewEngine(g, EngineOptions{}).GenerateCorpus(spec, &buf); err != nil {
		t.Fatal(err)
	}
	if len(calls) == 0 || calls[len(calls)-1] != 32 {
		t.Fatalf("progress calls %v must end at 32", calls)
	}
	for i := 1; i < len(calls); i++ {
		if calls[i] <= calls[i-1] {
			t.Fatalf("progress not monotone: %v", calls)
		}
	}
}

// TestCorpusSpecValidation checks the descriptive error paths.
func TestCorpusSpecValidation(t *testing.T) {
	e := NewEngine(graph.Cycle(8), EngineOptions{})
	var buf bytes.Buffer
	for _, spec := range []CorpusSpec{
		{WalksPerVertex: 0, Length: 5},
		{WalksPerVertex: 1, Length: 0},
		{WalksPerVertex: 1, Length: 5, Format: CorpusFormat(9)},
	} {
		if _, err := e.GenerateCorpus(spec, &buf); err == nil {
			t.Fatalf("spec %+v should be rejected", spec)
		}
	}
}

// TestScanCorpusBinaryRejectsGarbage checks the decoder's error paths.
func TestScanCorpusBinaryRejectsGarbage(t *testing.T) {
	g := graph.MargulisExpander(4)
	spec := CorpusSpec{WalksPerVertex: 1, Length: 4, Seed: 3, Format: CorpusBinary}
	raw := corpusBytes(t, g, EngineOptions{}, spec)
	nop := func([]int32) error { return nil }
	for name, data := range map[string][]byte{
		"empty":     {},
		"bad magic": append([]byte{1, 2, 3, 4}, raw[4:]...),
		"truncated": raw[:len(raw)-3],
		"trailing":  append(append([]byte{}, raw...), 0),
	} {
		if _, err := ScanCorpusBinary(bytes.NewReader(data), nop); err == nil {
			t.Fatalf("%s should be rejected", name)
		}
	}
	if _, err := ScanCorpusBinary(bytes.NewReader(raw), nop); err != nil {
		t.Fatalf("valid corpus rejected: %v", err)
	}
}

// TestGroupPathObserverMatchesReplay checks GroupPathObserver for a
// multi-walker lane shape (k=3), the configuration the corpus itself does
// not exercise, against the independent draw-discipline replay.
func TestGroupPathObserverMatchesReplay(t *testing.T) {
	g := graph.MargulisExpander(4)
	e := NewEngine(g, EngineOptions{Workers: 2})
	const L = 21
	starts := []int32{0, 5, 9}
	seeds := []uint64{101, 202, 303, 404}

	gobs := NewGroupPathObserver(L)
	_, err := e.RunGrouped(GroupedRunSpec{
		Trials: len(seeds), Starts: starts, Seeds: seeds, MaxRounds: L,
	}, gobs)
	if err != nil {
		t.Fatal(err)
	}
	for trial, seed := range seeds {
		got := gobs.TrialPath(trial)
		for i, s := range starts {
			want := append([]int32{s}, replayWalk(t, e, s, seed, i, L)...)
			for tt := 0; tt <= L; tt++ {
				if got[tt*len(starts)+i] != want[tt] {
					t.Fatalf("trial %d walker %d round %d: grouped %d != replay %d",
						trial, i, tt, got[tt*len(starts)+i], want[tt])
				}
			}
		}
	}
}
