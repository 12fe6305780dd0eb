package graph

import (
	"bufio"
	"io"
	"os"
)

// This file holds the file-level ingest entry points. Text files go through
// ReadEdgeList, whose Builder counting-sorts the edge stream into CSR in
// O(n+m) flat memory; binary v3 files are memory-mapped in place where the
// platform allows.

// OpenBinary reads a WriteBinary file from path. On platforms and layouts
// that allow it (linux, version-3 files, little-endian host) the CSR arrays
// are memory-mapped read-only in place — the adjacency never becomes
// heap-resident and pages load on demand; everything else falls back to
// ReadBinary transparently. A mapped graph reports Mapped() true and holds
// its mapping until Release.
func OpenBinary(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if g, err := openBinaryMapped(f); err == nil {
		return g, nil
	}
	// Unmappable layout (v2 file, foreign platform) or corrupt contents:
	// the heap reader either parses it or reports the descriptive error.
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	return ReadBinary(bufio.NewReaderSize(f, 1<<20))
}

// Open reads a graph from path, sniffing the format: files beginning with
// the binary magic take the binary path (memory-mapping the CSR arrays in
// place when the platform and layout allow, see OpenBinary), everything
// else parses as an edge list through ReadEdgeList. It is the ingest entry
// point the corpusgen and graphinfo commands use.
func Open(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	var magic [4]byte
	isBinary := false
	if _, err := io.ReadFull(f, magic[:]); err == nil {
		le := uint32(magic[0]) | uint32(magic[1])<<8 | uint32(magic[2])<<16 | uint32(magic[3])<<24
		isBinary = le == binaryMagic
	}
	f.Close()
	if isBinary {
		return OpenBinary(path)
	}
	f, err = os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadEdgeList(bufio.NewReaderSize(f, 1<<20))
}
