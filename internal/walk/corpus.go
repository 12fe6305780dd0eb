package walk

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"

	"manywalks/internal/rng"
)

// This file implements the bulk corpus workload: GenerateCorpus runs
// walksPerVertex truncated walks of a fixed length from *every* vertex of
// the graph and streams the trajectories out in deterministic order. The
// walks run as trial lanes through the grouped engine (RunGroupedInto), in
// waves sized to the grouped chunk caps, so the whole corpus never resides
// in memory: per wave the path observer holds a flat [lanes × (length+1)·k]
// int32 arena, the encoder drains it in trial order, and the next wave
// reuses every buffer. Seeds are derived from the GLOBAL walk index — walk
// j from vertex v is trial v·walksPerVertex+j, and its engine seed is the
// first draw of rng.NewStream(seed, trial), the exact derivation a
// standalone Engine.Run at that trial index would use — so the corpus bytes
// are invariant to wave size, Workers, and batch partitioning, and every
// recorded walk is bit-for-bit that standalone walk (pinned by
// TestCorpusMatchesSequentialWalks and TestCorpusDeterminism).

// ---------------------------------------------------------------------------
// GroupPathObserver

// GroupPathObserver records every trial lane's full trajectory — position
// after each round, including the round-0 placement — into a flat per-slot
// arena. It is the corpus workload's observer: lanes are never satisfied
// (laneSatisfied is always -1), so every trial runs to the fixed horizon
// and retires censored with its path complete.
//
// Length must equal the run's MaxRounds: each slot row holds (Length+1)·k
// vertices, time-major (round t's k walkers at [t·k, (t+1)·k)). Lane state
// is slot-indexed through the usual laneOff indirection, so compaction
// (which for this observer only happens at the end-of-run sweep) never
// copies a path. The observer supports a single grouped chunk per run:
// waves larger than the chunk caps would overwrite live paths, so bindGroup
// rejects them.
type GroupPathObserver struct {
	Length int

	k, rowLen int
	path      []int32
	laneOff   []int32
	outSlot   []int32 // trial -> slot holding its finished path
}

// NewGroupPathObserver returns a path recorder for walks of length rounds.
func NewGroupPathObserver(length int) *GroupPathObserver {
	return &GroupPathObserver{Length: length}
}

// perLaneCells reports the per-lane path cells so groupChunkLanes bounds
// the wave width by the arena budget as well as the walker cap.
func (o *GroupPathObserver) perLaneCells(int) int { return o.rowCells() }

func (o *GroupPathObserver) rowCells() int { return (o.Length + 1) * max(o.k, 1) }

func (o *GroupPathObserver) validateGroup(n, k, trials int) error {
	if o.Length < 1 {
		return fmt.Errorf("walk: path observer requires Length >= 1, got %d", o.Length)
	}
	return nil
}

func (o *GroupPathObserver) bindGroup(e *Engine, trials, lanes, k, workers int) {
	o.k = k
	o.rowLen = (o.Length + 1) * k
	if trials > lanes {
		// A second chunk would reuse slots holding the first chunk's paths
		// before the caller could read them. GenerateCorpus sizes waves to
		// one chunk; anything else is a programming error.
		panic(fmt.Sprintf("walk: GroupPathObserver holds one chunk of paths; %d trials exceed the %d-lane chunk", trials, lanes))
	}
	o.path = growSlice(o.path, lanes*o.rowLen)
	if cap(o.laneOff) < lanes {
		o.laneOff = make([]int32, lanes)
	}
	o.laneOff = o.laneOff[:lanes]
	for i := range o.laneOff {
		o.laneOff[i] = int32(i)
	}
	o.outSlot = growSlice(o.outSlot, trials)
}

// laneRow returns slot s's path arena row.
func (o *GroupPathObserver) laneRow(s int32) []int32 {
	off := int(s) * o.rowLen
	return o.path[off : off+o.rowLen]
}

func (o *GroupPathObserver) startLane(ln, trial int, starts []int32) {
	copy(o.laneRow(o.laneOff[ln])[:o.k], starts)
}

// scanRound copies each owned lane's fresh positions into round t's row
// segment — lane-private writes only, so shards never contend and the
// recorded path cannot depend on Workers or batching.
func (o *GroupPathObserver) scanRound(gs *groupState, loLane, hiLane, _ int, t int64) {
	k := gs.laneK
	if k == 1 {
		// The corpus shape: one walker per lane, one store per lane per round.
		for ln := loLane; ln < hiLane; ln++ {
			o.path[int(o.laneOff[ln])*o.rowLen+int(t)] = gs.pos[ln]
		}
		return
	}
	for ln := loLane; ln < hiLane; ln++ {
		row := o.laneRow(o.laneOff[ln])
		copy(row[int(t)*k:int(t+1)*k], gs.pos[ln*k:(ln+1)*k])
	}
}

// laneSatisfied: never — every trial is censored at the horizon with its
// path complete.
func (o *GroupPathObserver) laneSatisfied(int) int64 { return -1 }

func (o *GroupPathObserver) finishLane(ln, trial int, rounds int64, stopped bool) {
	o.outSlot[trial] = o.laneOff[ln]
}

func (o *GroupPathObserver) moveLane(dst, src int) {
	o.laneOff[dst], o.laneOff[src] = o.laneOff[src], o.laneOff[dst]
}

// TrialPath returns trial's recorded trajectory: (Length+1)·k vertices,
// time-major. The slice aliases the wave arena — valid until the observer's
// next run.
func (o *GroupPathObserver) TrialPath(trial int) []int32 {
	return o.laneRow(o.outSlot[trial])
}

// ---------------------------------------------------------------------------
// Corpus generation

// CorpusFormat selects the corpus encoding.
type CorpusFormat int

const (
	// CorpusText writes one walk per line: space-separated vertex ids,
	// length+1 per line, after a two-line header ("# manywalks corpus" and
	// "<n> <walksPerVertex> <length>").
	CorpusText CorpusFormat = iota
	// CorpusBinary writes a little-endian header (magic, version, n,
	// walksPerVertex, length) followed by n·walksPerVertex records of
	// length+1 int32 vertices each. Decode with ScanCorpusBinary.
	CorpusBinary
)

// CorpusSpec describes a walk corpus: WalksPerVertex truncated walks of
// Length rounds from every vertex of the engine's graph, in vertex order
// (walk j from vertex v is global walk v·WalksPerVertex+j). The engine's
// kernel is the step law.
type CorpusSpec struct {
	// WalksPerVertex is the number of walks started from each vertex
	// (required, >= 1).
	WalksPerVertex int
	// Length is the number of rounds per walk (required, >= 1); each
	// emitted walk has Length+1 vertices including the start.
	Length int
	// Seed is the root seed. Walk t's engine seed is the first draw of
	// rng.NewStream(Seed, t) — the standalone Engine.Run derivation — so
	// the corpus is bit-for-bit reproducible and invariant to Workers,
	// batching, and wave size.
	Seed uint64
	// Format selects the encoding (default CorpusText).
	Format CorpusFormat
	// Workers caps the goroutines stepping lane shards (0: the engine's
	// worker count). Output bytes never depend on it.
	Workers int
	// Progress, when non-nil, is called after each wave with the number of
	// walks emitted so far and the total.
	Progress func(done, total int64)
}

// CorpusStats reports what a corpus run produced.
type CorpusStats struct {
	Walks int64 // walks emitted: n * WalksPerVertex
	Steps int64 // walker steps simulated: Walks * Length
}

// corpusBinaryMagic guards the binary corpus format ("mwcp" bytes).
const corpusBinaryMagic = uint32(0x7063776d)

const corpusBinaryVersion = uint32(1)

// maxCorpusHeaderWord bounds the header's n, walks-per-vertex and length
// words; ScanCorpusBinary rejects anything larger.
const maxCorpusHeaderWord = 1 << 30

// GenerateCorpus runs spec's walks through the grouped engine in waves and
// streams the encoded corpus to w, returning the walk and step counts. The
// corpus never resides in memory: a wave of up to ~16k walks runs as trial
// lanes of one grouped pass, its paths are encoded from the wave arena in
// trial order, and the buffers are reused. The output is bit-for-bit
// identical for a fixed (graph, kernel, spec) regardless of spec.Workers,
// and each walk equals the standalone Engine.Run walk documented on
// CorpusSpec.Seed.
func (e *Engine) GenerateCorpus(spec CorpusSpec, w io.Writer) (CorpusStats, error) {
	if spec.WalksPerVertex < 1 {
		return CorpusStats{}, fmt.Errorf("walk: corpus requires WalksPerVertex >= 1, got %d", spec.WalksPerVertex)
	}
	if spec.Length < 1 {
		return CorpusStats{}, fmt.Errorf("walk: corpus requires Length >= 1, got %d", spec.Length)
	}
	if spec.Length > maxCorpusHeaderWord {
		return CorpusStats{}, fmt.Errorf("walk: corpus length %d exceeds the format's %d-round cap", spec.Length, maxCorpusHeaderWord)
	}
	if spec.Format != CorpusText && spec.Format != CorpusBinary {
		return CorpusStats{}, fmt.Errorf("walk: unknown corpus format %d", spec.Format)
	}
	n := e.g.N()
	total := int64(n) * int64(spec.WalksPerVertex)

	bw := bufio.NewWriterSize(w, 1<<20)
	if err := writeCorpusHeader(bw, spec, n); err != nil {
		return CorpusStats{}, err
	}

	obs := NewGroupPathObserver(spec.Length)
	obs.k = 1 // sized before the first bindGroup so rowCells is exact
	wave := groupChunkLanes(int(min(total, int64(1)<<30)), 1, obs.rowCells())
	seeds := make([]uint64, wave)
	scratch := make([]byte, 0, 12*(spec.Length+1)+1)
	var src rng.Source
	var res GroupedResult
	start := []int32{0}

	for base := int64(0); base < total; base += int64(wave) {
		m := int64(wave)
		if m > total-base {
			m = total - base
		}
		for t := int64(0); t < m; t++ {
			// The engine seed of GLOBAL walk base+t, derived exactly as a
			// standalone Seed/trial run derives it — wave size cannot move it.
			src.Reseed(rng.StreamSeed(spec.Seed, uint64(base+t)))
			seeds[t] = src.Uint64()
		}
		gspec := GroupedRunSpec{
			Trials: int(m),
			Starts: start,
			Seeds:  seeds[:m],
			StartsFor: func(t int, starts []int32) {
				starts[0] = int32((base + int64(t)) / int64(spec.WalksPerVertex))
			},
			MaxRounds: int64(spec.Length),
			Workers:   spec.Workers,
		}
		if err := e.RunGroupedInto(gspec, &res, obs); err != nil {
			return CorpusStats{}, err
		}
		for t := 0; t < int(m); t++ {
			walk := obs.TrialPath(t)
			var err error
			if spec.Format == CorpusText {
				scratch, err = writeCorpusWalkText(bw, walk, scratch)
			} else {
				scratch, err = writeCorpusWalkBinary(bw, walk, scratch)
			}
			if err != nil {
				return CorpusStats{}, err
			}
		}
		if spec.Progress != nil {
			spec.Progress(base+m, total)
		}
	}
	if err := bw.Flush(); err != nil {
		return CorpusStats{}, err
	}
	return CorpusStats{Walks: total, Steps: total * int64(spec.Length)}, nil
}

// writeCorpusHeader emits the format's header.
func writeCorpusHeader(bw *bufio.Writer, spec CorpusSpec, n int) error {
	if spec.Format == CorpusText {
		_, err := fmt.Fprintf(bw, "# manywalks corpus\n%d %d %d\n", n, spec.WalksPerVertex, spec.Length)
		return err
	}
	var word [4]byte
	for _, v := range []uint32{corpusBinaryMagic, corpusBinaryVersion, uint32(n), uint32(spec.WalksPerVertex), uint32(spec.Length)} {
		binary.LittleEndian.PutUint32(word[:], v)
		if _, err := bw.Write(word[:]); err != nil {
			return err
		}
	}
	return nil
}

// writeCorpusWalkText appends one walk line through the reused scratch
// buffer (returned for reuse).
func writeCorpusWalkText(bw *bufio.Writer, walk []int32, scratch []byte) ([]byte, error) {
	scratch = scratch[:0]
	for j, v := range walk {
		if j > 0 {
			scratch = append(scratch, ' ')
		}
		scratch = strconv.AppendInt(scratch, int64(v), 10)
	}
	scratch = append(scratch, '\n')
	_, err := bw.Write(scratch)
	return scratch, err
}

// writeCorpusWalkBinary appends one walk record little-endian through the
// reused scratch buffer.
func writeCorpusWalkBinary(bw *bufio.Writer, walk []int32, scratch []byte) ([]byte, error) {
	need := 4 * len(walk)
	if cap(scratch) < need {
		scratch = make([]byte, need)
	}
	scratch = scratch[:need]
	for j, v := range walk {
		binary.LittleEndian.PutUint32(scratch[j*4:], uint32(v))
	}
	_, err := bw.Write(scratch)
	return scratch, err
}

// CorpusHeader is the decoded metadata of a binary corpus.
type CorpusHeader struct {
	N              int
	WalksPerVertex int
	Length         int
}

// ScanCorpusBinary decodes a CorpusBinary stream, invoking fn once per walk
// in emission order with a reused slice of Length+1 vertices (copy it to
// retain). It validates the header, record count, and vertex ranges.
func ScanCorpusBinary(r io.Reader, fn func(walk []int32) error) (CorpusHeader, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var word [4]byte
	readWord := func() (uint32, error) {
		if _, err := io.ReadFull(br, word[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(word[:]), nil
	}
	magic, err := readWord()
	if err != nil {
		return CorpusHeader{}, err
	}
	if magic != corpusBinaryMagic {
		return CorpusHeader{}, fmt.Errorf("walk: bad corpus magic %#x", magic)
	}
	version, err := readWord()
	if err != nil {
		return CorpusHeader{}, err
	}
	if version != corpusBinaryVersion {
		return CorpusHeader{}, fmt.Errorf("walk: unsupported corpus version %d", version)
	}
	var h CorpusHeader
	for _, dst := range []*int{&h.N, &h.WalksPerVertex, &h.Length} {
		v, err := readWord()
		if err != nil {
			return CorpusHeader{}, err
		}
		if v > maxCorpusHeaderWord {
			return CorpusHeader{}, fmt.Errorf("walk: unreasonable corpus header word %d", v)
		}
		*dst = int(v)
	}
	if h.N < 1 || h.WalksPerVertex < 1 || h.Length < 1 {
		return h, fmt.Errorf("walk: corpus header (%d,%d,%d) out of range", h.N, h.WalksPerVertex, h.Length)
	}
	walk := make([]int32, h.Length+1)
	raw := make([]byte, 4*(h.Length+1))
	total := int64(h.N) * int64(h.WalksPerVertex)
	for i := int64(0); i < total; i++ {
		if _, err := io.ReadFull(br, raw); err != nil {
			return h, fmt.Errorf("walk: corpus truncated at walk %d of %d: %w", i, total, err)
		}
		for j := range walk {
			v := int32(binary.LittleEndian.Uint32(raw[j*4:]))
			if v < 0 || int(v) >= h.N {
				return h, fmt.Errorf("walk: corpus walk %d vertex %d out of range [0,%d)", i, v, h.N)
			}
			walk[j] = v
		}
		if err := fn(walk); err != nil {
			return h, err
		}
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return h, fmt.Errorf("walk: trailing bytes after %d corpus walks", total)
	}
	return h, nil
}
