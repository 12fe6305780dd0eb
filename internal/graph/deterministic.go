package graph

import (
	"fmt"
	"math/bits"
)

// Cycle returns the cycle L_n on n >= 3 vertices: vertex i is adjacent to
// (i±1) mod n. It is the paper's canonical example of logarithmic speed-up
// (Theorem 6).
func Cycle(n int) *Graph {
	if n < 3 {
		panic("graph: Cycle requires n >= 3")
	}
	w := newRowWriter(n, 2*n)
	for i := 0; i < n; i++ {
		a, b := int32((i+n-1)%n), int32((i+1)%n)
		w.add(min(a, b), max(a, b))
		w.endRow()
	}
	return w.finish(fmt.Sprintf("cycle(%d)", n))
}

// Path returns the path graph on n >= 2 vertices (vertices 0..n-1 in a line).
func Path(n int) *Graph {
	if n < 2 {
		panic("graph: Path requires n >= 2")
	}
	w := newRowWriter(n, 2*n-2)
	for i := 0; i < n; i++ {
		if i > 0 {
			w.add(int32(i - 1))
		}
		if i < n-1 {
			w.add(int32(i + 1))
		}
		w.endRow()
	}
	return w.finish(fmt.Sprintf("path(%d)", n))
}

// Complete returns the complete graph K_n. If withLoops is true every vertex
// also carries a self-loop, the variant used in the paper's Lemma 12 coupon-
// collector argument (each step lands on a uniform vertex of all n).
func Complete(n int, withLoops bool) *Graph {
	if n < 2 {
		panic("graph: Complete requires n >= 2")
	}
	w := newRowWriter(n, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j != i || withLoops {
				w.add(int32(j))
			}
		}
		w.endRow()
	}
	label := fmt.Sprintf("complete(%d)", n)
	if withLoops {
		label = fmt.Sprintf("complete+loops(%d)", n)
	}
	return w.finish(label)
}

// Star returns the star graph on n >= 2 vertices with center 0.
func Star(n int) *Graph {
	if n < 2 {
		panic("graph: Star requires n >= 2")
	}
	w := newRowWriter(n, 2*n-2)
	for i := 1; i < n; i++ {
		w.add(int32(i))
	}
	w.endRow()
	for i := 1; i < n; i++ {
		w.add(0)
		w.endRow()
	}
	return w.finish(fmt.Sprintf("star(%d)", n))
}

// Grid returns the d-dimensional grid with side lengths dims. If torus is
// true opposite faces are identified (periodic boundary), giving the regular
// tori used by Table 1 and Theorem 8; otherwise the grid has boundary.
// A side of length 2 on a torus would create a double edge; it is rejected.
func Grid(dims []int, torus bool) *Graph {
	if len(dims) == 0 {
		panic("graph: Grid requires at least one dimension")
	}
	n := 1
	for _, d := range dims {
		if d < 2 {
			panic("graph: Grid sides must be >= 2")
		}
		if torus && d == 2 {
			panic("graph: torus sides must be >= 3 to stay simple")
		}
		n *= d
	}
	// Mixed-radix coordinates: vertex index = sum coord[i] * stride[i].
	stride := make([]int, len(dims))
	s := 1
	for i := len(dims) - 1; i >= 0; i-- {
		stride[i] = s
		s *= dims[i]
	}
	w := newRowWriter(n, 2*len(dims)*n)
	coord := make([]int, len(dims))
	for v := 0; v < n; v++ {
		for i, c := range coord {
			if torus {
				up := v + ((c+1)%dims[i]-c)*stride[i]
				dn := v + ((c+dims[i]-1)%dims[i]-c)*stride[i]
				w.add(int32(up), int32(dn))
			} else {
				if c+1 < dims[i] {
					w.add(int32(v + stride[i]))
				}
				if c > 0 {
					w.add(int32(v - stride[i]))
				}
			}
		}
		w.endRow()
		// Increment mixed-radix counter.
		for i := len(coord) - 1; i >= 0; i-- {
			coord[i]++
			if coord[i] < dims[i] {
				break
			}
			coord[i] = 0
		}
	}
	kind := "grid"
	if torus {
		kind = "torus"
	}
	return w.finish(fmt.Sprintf("%s%v", kind, dims))
}

// Torus2D returns the side×side 2-dimensional torus (√n × √n grid on the
// torus in the paper's notation).
func Torus2D(side int) *Graph { return Grid([]int{side, side}, true) }

// Hypercube returns the dim-dimensional hypercube on n = 2^dim vertices;
// vertices are bitstrings, adjacent iff they differ in one bit.
func Hypercube(dim int) *Graph {
	if dim < 1 || dim > 30 {
		panic("graph: Hypercube dimension out of range [1,30]")
	}
	n := 1 << uint(dim)
	w := newRowWriter(n, n*dim)
	for v := 0; v < n; v++ {
		// Row v in ascending order, placed by position with no branch on
		// v's bits: clearing a set bit gives a smaller neighbour, which sorts
		// after the set bits above it (the higher bit clears to the smaller
		// value); setting a clear bit gives a larger one, which sorts after
		// all the set bits and the clear bits below it.
		row := w.grow(dim)
		ones := bits.OnesCount32(uint32(v))
		above, below := ones, 0 // set bits at or above b; clear bits below b
		for b := 0; b < dim; b++ {
			bit := v >> uint(b) & 1
			above -= bit
			row[bit*above+(1-bit)*(ones+below)] = int32(v ^ 1<<uint(b))
			below += 1 - bit
		}
		w.endRow()
	}
	return w.finish(fmt.Sprintf("hypercube(%d)", dim))
}

// BalancedTree returns the complete rooted tree in which every internal node
// has arity children and all leaves are at depth height. Root is vertex 0.
// The paper cites d-regular balanced trees as a Matthews-tight family
// (Zuckerman [33]).
func BalancedTree(arity, height int) *Graph {
	if arity < 2 || height < 1 {
		panic("graph: BalancedTree requires arity >= 2, height >= 1")
	}
	// n = (arity^(height+1) - 1) / (arity - 1)
	n := 1
	level := 1
	for i := 0; i < height; i++ {
		level *= arity
		n += level
	}
	w := newRowWriter(n, 2*(n-1))
	firstLeaf := n - level
	for v := 0; v < n; v++ {
		if v > 0 {
			w.add(int32((v - 1) / arity))
		}
		if v < firstLeaf {
			for c := 0; c < arity; c++ {
				w.add(int32(v*arity + c + 1))
			}
		}
		w.endRow()
	}
	return w.finish(fmt.Sprintf("tree(a=%d,h=%d)", arity, height))
}

// Barbell returns the paper's barbell graph B_n for odd n: two cliques of
// size (n-1)/2 joined by a path of length 2 through a center vertex.
// The center is returned alongside the graph; Theorem 7 measures cover time
// from it. Clique A occupies vertices [0,m), clique B occupies [m, 2m), and
// the center is vertex n-1 (= 2m), adjacent to one vertex of each clique.
func Barbell(n int) (*Graph, int32) {
	if n < 7 || n%2 == 0 {
		panic("graph: Barbell requires odd n >= 7")
	}
	m := (n - 1) / 2
	center := int32(n - 1)
	w := newRowWriter(n, 2*m*(m-1)+4)
	// Two cliques, then the center. The path endpoints, vertex 0 of clique
	// A and vertex m of clique B, end their rows with the center ("a path
	// of length 2" in the paper), the largest vertex.
	for side := 0; side < 2; side++ {
		base := side * m
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				if j != i {
					w.add(int32(base + j))
				}
			}
			if i == 0 {
				w.add(center)
			}
			w.endRow()
		}
	}
	w.add(0, int32(m))
	w.endRow()
	return w.finish(fmt.Sprintf("barbell(%d)", n)), center
}

// Lollipop returns the lollipop graph: a clique on cliqueN vertices with a
// path of pathN extra vertices attached to clique vertex 0. Its cover time
// is the Θ(n³) worst case cited in the paper's preliminaries.
func Lollipop(cliqueN, pathN int) *Graph {
	if cliqueN < 3 || pathN < 1 {
		panic("graph: Lollipop requires cliqueN >= 3, pathN >= 1")
	}
	n := cliqueN + pathN
	w := newRowWriter(n, cliqueN*(cliqueN-1)+2*pathN)
	for i := 0; i < cliqueN; i++ {
		for j := 0; j < cliqueN; j++ {
			if j != i {
				w.add(int32(j))
			}
		}
		// Path vertices cliqueN .. n-1 hang off clique vertex 0.
		if i == 0 {
			w.add(int32(cliqueN))
		}
		w.endRow()
	}
	for i := cliqueN; i < n; i++ {
		if i == cliqueN {
			w.add(0)
		} else {
			w.add(int32(i - 1))
		}
		if i+1 < n {
			w.add(int32(i + 1))
		}
		w.endRow()
	}
	return w.finish(fmt.Sprintf("lollipop(%d+%d)", cliqueN, pathN))
}
