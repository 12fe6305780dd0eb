package graph

import "fmt"

// MargulisExpander returns the Margulis–Gabber–Galil expander on the m×m
// torus Z_m × Z_m (n = m² vertices). Vertex (x,y) connects to
//
//	(x±2y, y), (x±(2y+1), y), (x, y±2x), (x, y±(2x+1))   (mod m)
//
// giving an 8-regular multigraph whose simple-graph skeleton is a proven
// expander (second adjacency eigenvalue at most 5√2 < 8). Collapsing
// parallel edges and loops makes vertex degrees vary slightly (between 4 and
// 8 at small m); tests certify the spectral gap of the realized graph
// directly rather than relying on the multigraph constant.
func MargulisExpander(m int) *Graph {
	if m < 2 {
		panic("graph: MargulisExpander requires m >= 2")
	}
	n := m * m
	// The eight maps are closed under inverse, so u is a target of v iff v
	// is a target of u: each vertex's row is its own target list, less
	// loops and duplicates. Row (x,y) is written in ascending order: the
	// four x-moves (x', y) with x' < x, the four y-moves (x, y'), which all
	// lie in block x, then the x-moves with x' > x. A move that keeps its
	// coordinate is the loop. Every shift is below m, so one conditional
	// add or subtract reduces each coordinate mod m.
	w := newRowWriter(n, 8*n)
	for x := 0; x < m; x++ {
		b := wrapMod(2*x, m)
		for y := 0; y < m; y++ {
			a := wrapMod(2*y, m)
			xs := sort4(wrapMod(x+a, m), wrapMod(x-a, m), wrapMod(x+a+1, m), wrapMod(x-a-1, m))
			ys := sort4(wrapMod(y+b, m), wrapMod(y-b, m), wrapMod(y+b+1, m), wrapMod(y-b-1, m))
			prev := -1
			for _, x2 := range xs {
				if x2 < x && x2 != prev {
					w.add(int32(x2*m + y))
					prev = x2
				}
			}
			prev = -1
			for _, y2 := range ys {
				if y2 != y && y2 != prev {
					w.add(int32(x*m + y2))
					prev = y2
				}
			}
			prev = -1
			for _, x2 := range xs {
				if x2 > x && x2 != prev {
					w.add(int32(x2*m + y))
					prev = x2
				}
			}
			w.endRow()
		}
	}
	return w.finish(fmt.Sprintf("margulis(%d^2)", m))
}

// wrapMod reduces a in [-m, 2m) to [0, m) without a division.
func wrapMod(a, m int) int {
	if a < 0 {
		a += m
	}
	if a >= m {
		a -= m
	}
	return a
}

// sort4 returns a, b, c, d in ascending order through a five-comparator
// sorting network.
func sort4(a, b, c, d int) [4]int {
	a, b = min(a, b), max(a, b)
	c, d = min(c, d), max(c, d)
	a, c = min(a, c), max(a, c)
	b, d = min(b, d), max(b, d)
	b, c = min(b, c), max(b, c)
	return [4]int{a, b, c, d}
}

// CycleWithChords returns the 3-regular "cycle with inverse chords" graph on
// a prime p: vertex x is adjacent to x+1, x-1 (mod p) and to its modular
// inverse x^{-1} (0 is matched with itself, yielding one self-loop that we
// drop to stay simple, so vertices 0 and 1 and p-1 have degree 2 or 3).
// This is the classic explicit expander of Chung; it provides a second,
// structurally different (n,d,λ)-graph for the expander experiments.
func CycleWithChords(p int) *Graph {
	if p < 5 || !isPrime(p) {
		panic("graph: CycleWithChords requires a prime p >= 5")
	}
	b := NewBuilder(p)
	for x := 0; x < p; x++ {
		b.AddEdge(int32(x), int32((x+1)%p))
		inv := modInverse(x, p)
		if inv != x {
			b.AddEdge(int32(x), int32(inv))
		}
	}
	return b.Build(fmt.Sprintf("chords(%d)", p))
}

// isPrime is a deterministic trial-division primality test, sufficient for
// the graph sizes used here.
func isPrime(p int) bool {
	if p < 2 {
		return false
	}
	if p%2 == 0 {
		return p == 2
	}
	for f := 3; f*f <= p; f += 2 {
		if p%f == 0 {
			return false
		}
	}
	return true
}

// modInverse returns x^{-1} mod p for prime p, with the convention that
// 0^{-1} = 0. It uses Fermat exponentiation.
func modInverse(x, p int) int {
	if x == 0 {
		return 0
	}
	result, base, exp := 1, x%p, p-2
	for exp > 0 {
		if exp&1 == 1 {
			result = result * base % p
		}
		base = base * base % p
		exp >>= 1
	}
	return result
}
