package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// maxSerializedVertices bounds the vertex count both deserializers accept,
// so a few-byte header cannot demand a multi-gigabyte allocation.
const maxSerializedVertices = 1 << 28

// maxSerializedEdges bounds the edge count an edge-list header may declare:
// every non-loop edge contributes two adjacency entries, so m past 2^30-1
// cannot be packed into int32 CSR offsets. The bound is checked against the
// header before any edge is read, so an absurd synthetic header fails with
// a descriptive error instead of overflowing int32 indices edge by edge.
const maxSerializedEdges = 1<<30 - 1

// encodeName renders a graph name for the edge-list header. Names that
// would corrupt the line format — control characters, leading/trailing
// whitespace, or a leading quote — are written Go-quoted; plain names stay
// raw for back-compatibility. decodeName reverses the choice. The escaping
// was shaken out by FuzzSerializeRoundTrip (a name containing a newline
// used to split the header line).
func encodeName(name string) string {
	if name == "" {
		return name
	}
	plain := !strings.HasPrefix(name, `"`) && strings.TrimSpace(name) == name
	for _, r := range name {
		if r < 0x20 || r == 0x7f {
			plain = false
			break
		}
	}
	if plain {
		return name
	}
	return strconv.Quote(name)
}

func decodeName(s string) string {
	if strings.HasPrefix(s, `"`) {
		if name, err := strconv.Unquote(s); err == nil {
			return name
		}
	}
	return s
}

// WriteEdgeList writes the graph in a plain text format:
//
//	# name <label>
//	<n> <m>
//	<u> <v>      (one line per undirected edge, u <= v, sorted)
//
// Weighted graphs append the weight as a third column, <u> <v> <w>, printed
// with enough digits that weights round-trip exactly through ReadEdgeList.
// The graph name round-trips through the header comment (quoted when it
// contains characters the line format cannot carry raw); both properties
// are pinned by TestWeightedEdgeListRoundTrip and FuzzSerializeRoundTrip.
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# name %s\n%d %d\n", encodeName(g.Name()), g.N(), g.M()); err != nil {
		return err
	}
	for v := int32(0); v < int32(g.N()); v++ {
		for i, u := range g.Neighbors(v) {
			if u < v { // each undirected edge once; self-loop has u == v
				continue
			}
			var err error
			if g.Weighted() {
				_, err = fmt.Fprintf(bw, "%d %d %.17g\n", v, u, g.EdgeWeight(v, i))
			} else {
				_, err = fmt.Fprintf(bw, "%d %d\n", v, u)
			}
			if err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadEdgeList parses the WriteEdgeList format. It is the only edge-list
// reader: one forward pass feeds a Builder, whose counting sort packs the
// edges into CSR in O(n+m) flat memory. Duplicate edges collapse, their
// weights summed in input order. Open uses it for every text file.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	name := ""
	var b *Builder
	m, edges := 0, 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if rest, ok := strings.CutPrefix(line, "# name "); ok {
				name = decodeName(rest)
			}
			continue
		}
		fields := strings.Fields(line)
		if b == nil {
			if len(fields) != 2 {
				return nil, fmt.Errorf("graph: bad header %q", line)
			}
			n, err := strconv.Atoi(fields[0])
			if err != nil {
				return nil, fmt.Errorf("graph: bad vertex count: %w", err)
			}
			if m, err = strconv.Atoi(fields[1]); err != nil {
				return nil, fmt.Errorf("graph: bad edge count: %w", err)
			}
			if n < 0 || m < 0 {
				return nil, fmt.Errorf("graph: negative sizes in header %q", line)
			}
			if n > maxSerializedVertices {
				return nil, fmt.Errorf("graph: vertex count %d exceeds the reader limit %d", n, maxSerializedVertices)
			}
			if m > maxSerializedEdges {
				return nil, fmt.Errorf("graph: edge count %d exceeds the int32 adjacency limit (%d edges)", m, maxSerializedEdges)
			}
			b = NewBuilder(n)
			continue
		}
		if len(fields) != 2 && len(fields) != 3 {
			return nil, fmt.Errorf("graph: bad edge line %q", line)
		}
		// 32-bit parses, so an id past int32 fails here instead of
		// wrapping into range; add checks the range itself.
		u, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, err
		}
		v, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, err
		}
		wt, weighted := 1.0, false
		if len(fields) == 3 {
			if wt, err = strconv.ParseFloat(fields[2], 64); err != nil {
				return nil, fmt.Errorf("graph: bad edge weight %q: %w", fields[2], err)
			}
			weighted = true
		}
		if err := b.add(int32(u), int32(v), wt, weighted); err != nil {
			return nil, err
		}
		edges++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if b == nil {
		return nil, fmt.Errorf("graph: missing header")
	}
	if edges != m {
		return nil, fmt.Errorf("graph: header promises %d edges, found %d", m, edges)
	}
	return b.build(name)
}

// binaryMagic guards the binary format against foreign input.
const binaryMagic = uint32(0x6d77616c) // "mwal"

// binaryVersion is the current binary layout revision. Version 2 added the
// version/flags words and the optional weight section; version-1 payloads
// (which had neither) are no longer produced and are rejected on read.
// Version 3 adds zero padding after the name (aligning the offsets and
// adjacency arrays to 4 bytes) and before the weight array (aligning it to
// 8), so the mmap-backed reader (OpenBinary) can view the CSR arrays in
// place without copying. The reader accepts versions 2 and 3; the writer
// emits 3. No binary files are checked in anywhere, so the writer bump is
// safe.
const (
	binaryVersion   = uint32(3)
	binaryVersionV2 = uint32(2)
)

// binaryAlignPads returns the two v3 padding lengths for a given name
// length: padA zero bytes follow the name (so the offsets array, which
// starts after the 4-byte vertex-count word, lands 4-aligned relative to
// the file start) and, for weighted payloads, padB zero bytes precede the
// weight array (8-aligning it). The fixed header is 16 bytes (magic,
// version, flags, nameLen), so the vertex-count word sits at 16+nameLen+padA.
func binaryAlignPads(nameLen int, n, totalAdj int64) (padA, padB int) {
	padA = (4 - nameLen%4) % 4
	weightsAt := int64(16+nameLen+padA+4) + 4*(n+1) + 4*totalAdj
	padB = int((8 - weightsAt%8) % 8)
	return padA, padB
}

// binaryFlagWeighted marks a payload that carries a float64 weight array
// parallel to the adjacency array.
const binaryFlagWeighted = uint32(1)

// maxBinaryNameLen bounds the name section on both sides of the binary
// format.
const maxBinaryNameLen = 1 << 16

// WriteBinary writes a compact little-endian binary encoding: magic,
// version, flags, name, alignment padding, offsets, adjacency, and (for
// weighted graphs) the weight array (see binaryVersion for the v3 layout).
// It is the fast path for checkpointing large graph instances between
// experiment stages; name and weights round-trip exactly, and the arrays
// are encoded through a fixed chunk buffer, so writing a multi-hundred-MB
// instance never allocates a payload-sized temporary. Names longer than
// the reader accepts are rejected up front.
func (g *Graph) WriteBinary(w io.Writer) error {
	if len(g.Name()) > maxBinaryNameLen {
		return fmt.Errorf("graph: name length %d exceeds binary format limit %d", len(g.Name()), maxBinaryNameLen)
	}
	bw := bufio.NewWriterSize(w, readChunkBytes)
	le := binary.LittleEndian
	flags := uint32(0)
	if g.Weighted() {
		flags |= binaryFlagWeighted
	}
	name := g.Name()
	var word [4]byte
	for _, v := range []uint32{binaryMagic, binaryVersion, flags, uint32(len(name))} {
		le.PutUint32(word[:], v)
		if _, err := bw.Write(word[:]); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString(name); err != nil {
		return err
	}
	padA, padB := binaryAlignPads(len(name), int64(g.N()), int64(len(g.adj)))
	var pad [8]byte
	if _, err := bw.Write(pad[:padA]); err != nil {
		return err
	}
	le.PutUint32(word[:], uint32(g.N()))
	if _, err := bw.Write(word[:]); err != nil {
		return err
	}
	if err := writeInt32sLE(bw, g.offsets); err != nil {
		return err
	}
	if err := writeInt32sLE(bw, g.adj); err != nil {
		return err
	}
	if g.Weighted() {
		if _, err := bw.Write(pad[:padB]); err != nil {
			return err
		}
		if err := writeFloat64sLE(bw, g.weights); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// readChunkBytes is the chunk-buffer size both binary codecs stage arrays
// through: the reader's allocations grow only as payload actually arrives,
// so a malformed header declaring 2^28 vertices on a 20-byte input fails
// after one small chunk instead of allocating gigabytes first (a hang the
// FuzzBinaryParse target shook out), and the writer encodes any array with
// one fixed scratch buffer instead of binary.Write's payload-sized copy.
const readChunkBytes = 1 << 16

// writeInt32sLE encodes s little-endian through a fixed chunk buffer.
func writeInt32sLE(w io.Writer, s []int32) error {
	var buf [readChunkBytes]byte
	for len(s) > 0 {
		c := min(len(s), len(buf)/4)
		for i := 0; i < c; i++ {
			binary.LittleEndian.PutUint32(buf[i*4:], uint32(s[i]))
		}
		if _, err := w.Write(buf[:c*4]); err != nil {
			return err
		}
		s = s[c:]
	}
	return nil
}

// writeFloat64sLE encodes s little-endian through a fixed chunk buffer.
func writeFloat64sLE(w io.Writer, s []float64) error {
	var buf [readChunkBytes]byte
	for len(s) > 0 {
		c := min(len(s), len(buf)/8)
		for i := 0; i < c; i++ {
			binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(s[i]))
		}
		if _, err := w.Write(buf[:c*8]); err != nil {
			return err
		}
		s = s[c:]
	}
	return nil
}

func readInt32s(r io.Reader, buf []byte, count int) ([]int32, error) {
	chunk := len(buf) / 4
	out := make([]int32, 0, min(count, chunk))
	for len(out) < count {
		c := min(chunk, count-len(out))
		b := buf[:c*4]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		for i := 0; i < c; i++ {
			out = append(out, int32(binary.LittleEndian.Uint32(b[i*4:])))
		}
	}
	return out, nil
}

func readFloat64s(r io.Reader, buf []byte, count int) ([]float64, error) {
	chunk := len(buf) / 8
	out := make([]float64, 0, min(count, chunk))
	for len(out) < count {
		c := min(chunk, count-len(out))
		b := buf[:c*8]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		for i := 0; i < c; i++ {
			out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:])))
		}
	}
	return out, nil
}

// validateBinaryCSR is the shared back half of the binary readers (stream
// and mmap): offsets sanity before anything slices the adjacency through
// them, loop/edge bookkeeping, and the full structural Validate.
func validateBinaryCSR(g *Graph, n int) (*Graph, error) {
	if len(g.offsets) != n+1 || g.offsets[0] != 0 {
		return nil, fmt.Errorf("graph: corrupt binary payload: offsets do not start at 0")
	}
	for v := 0; v < n; v++ {
		if g.offsets[v] > g.offsets[v+1] {
			return nil, fmt.Errorf("graph: corrupt binary payload: offsets not monotone at %d", v)
		}
	}
	total := g.offsets[n]
	if total < 0 {
		return nil, fmt.Errorf("graph: negative adjacency length")
	}
	if int(total) != len(g.adj) {
		return nil, fmt.Errorf("graph: corrupt binary payload: adjacency length %d != offsets end %d", len(g.adj), total)
	}
	g.loops = 0
	for v := int32(0); v < int32(n); v++ {
		for _, u := range g.Neighbors(v) {
			if u == v {
				g.loops++
			}
		}
	}
	g.m = (len(g.adj)-g.loops)/2 + g.loops
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("graph: corrupt binary payload: %w", err)
	}
	return g, nil
}

// ReadBinary parses the WriteBinary format (versions 2 and 3) and validates
// the result. The arrays land on the heap; OpenBinary maps v3 files
// read-only in place instead.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReaderSize(r, readChunkBytes)
	le := binary.LittleEndian
	buf := make([]byte, readChunkBytes)
	word := func() (uint32, error) {
		if _, err := io.ReadFull(br, buf[:4]); err != nil {
			return 0, err
		}
		return le.Uint32(buf[:4]), nil
	}
	magic, err := word()
	if err != nil {
		return nil, err
	}
	if magic != binaryMagic {
		return nil, fmt.Errorf("graph: bad magic %#x", magic)
	}
	version, err := word()
	if err != nil {
		return nil, err
	}
	if version != binaryVersion && version != binaryVersionV2 {
		return nil, fmt.Errorf("graph: unsupported binary version %d (want %d or %d)", version, binaryVersionV2, binaryVersion)
	}
	flags, err := word()
	if err != nil {
		return nil, err
	}
	if flags&^binaryFlagWeighted != 0 {
		return nil, fmt.Errorf("graph: unknown binary flags %#x", flags)
	}
	nameLen, err := word()
	if err != nil {
		return nil, err
	}
	if nameLen > maxBinaryNameLen {
		return nil, fmt.Errorf("graph: unreasonable name length %d", nameLen)
	}
	nameBytes := make([]byte, nameLen)
	if _, err := io.ReadFull(br, nameBytes); err != nil {
		return nil, err
	}
	skip := func(c int) error {
		if c == 0 {
			return nil
		}
		_, err := io.ReadFull(br, buf[:c])
		return err
	}
	padded := version >= binaryVersion
	if padded {
		padA, _ := binaryAlignPads(int(nameLen), 0, 0)
		if err := skip(padA); err != nil {
			return nil, err
		}
	}
	n, err := word()
	if err != nil {
		return nil, err
	}
	if n > maxSerializedVertices {
		return nil, fmt.Errorf("graph: vertex count %d exceeds the reader limit %d", n, maxSerializedVertices)
	}
	g := &Graph{name: string(nameBytes)}
	if g.offsets, err = readInt32s(br, buf, int(n)+1); err != nil {
		return nil, err
	}
	// Bound the adjacency read by the declared offsets *before* validating
	// them fully: a negative or non-monotone end word must not size a read.
	total := g.offsets[n]
	if total < 0 {
		return nil, fmt.Errorf("graph: negative adjacency length")
	}
	if g.adj, err = readInt32s(br, buf, int(total)); err != nil {
		return nil, err
	}
	if flags&binaryFlagWeighted != 0 {
		if padded {
			_, padB := binaryAlignPads(int(nameLen), int64(n), int64(total))
			if err := skip(padB); err != nil {
				return nil, err
			}
		}
		if g.weights, err = readFloat64s(br, buf, int(total)); err != nil {
			return nil, err
		}
	}
	return validateBinaryCSR(g, int(n))
}

// WriteDOT emits Graphviz DOT for small-graph visualization; self-loops and
// each undirected edge appear once.
func (g *Graph) WriteDOT(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "graph %q {\n", g.Name()); err != nil {
		return err
	}
	for v := int32(0); v < int32(g.N()); v++ {
		for _, u := range g.Neighbors(v) {
			if u >= v {
				if _, err := fmt.Fprintf(bw, "  %d -- %d;\n", v, u); err != nil {
					return err
				}
			}
		}
	}
	if _, err := fmt.Fprintln(bw, "}"); err != nil {
		return err
	}
	return bw.Flush()
}
