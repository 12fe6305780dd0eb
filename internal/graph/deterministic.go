package graph

import "fmt"

// Cycle returns the cycle L_n on n >= 3 vertices: vertex i is adjacent to
// (i±1) mod n. It is the paper's canonical example of logarithmic speed-up
// (Theorem 6).
func Cycle(n int) *Graph {
	if n < 3 {
		panic("graph: Cycle requires n >= 3")
	}
	lists := make([][]int32, n)
	for i := 0; i < n; i++ {
		lists[i] = []int32{int32((i + n - 1) % n), int32((i + 1) % n)}
	}
	return fromAdjacency(lists, fmt.Sprintf("cycle(%d)", n))
}

// Path returns the path graph on n >= 2 vertices (vertices 0..n-1 in a line).
func Path(n int) *Graph {
	if n < 2 {
		panic("graph: Path requires n >= 2")
	}
	lists := make([][]int32, n)
	for i := 0; i < n; i++ {
		switch {
		case i == 0:
			lists[i] = []int32{1}
		case i == n-1:
			lists[i] = []int32{int32(n - 2)}
		default:
			lists[i] = []int32{int32(i - 1), int32(i + 1)}
		}
	}
	return fromAdjacency(lists, fmt.Sprintf("path(%d)", n))
}

// Complete returns the complete graph K_n. If withLoops is true every vertex
// also carries a self-loop, the variant used in the paper's Lemma 12 coupon-
// collector argument (each step lands on a uniform vertex of all n).
func Complete(n int, withLoops bool) *Graph {
	if n < 2 {
		panic("graph: Complete requires n >= 2")
	}
	lists := make([][]int32, n)
	for i := 0; i < n; i++ {
		row := make([]int32, 0, n)
		for j := 0; j < n; j++ {
			if j != i || withLoops {
				row = append(row, int32(j))
			}
		}
		lists[i] = row
	}
	label := fmt.Sprintf("complete(%d)", n)
	if withLoops {
		label = fmt.Sprintf("complete+loops(%d)", n)
	}
	return fromAdjacency(lists, label)
}

// Star returns the star graph on n >= 2 vertices with center 0.
func Star(n int) *Graph {
	if n < 2 {
		panic("graph: Star requires n >= 2")
	}
	lists := make([][]int32, n)
	center := make([]int32, 0, n-1)
	for i := 1; i < n; i++ {
		center = append(center, int32(i))
		lists[i] = []int32{0}
	}
	lists[0] = center
	return fromAdjacency(lists, fmt.Sprintf("star(%d)", n))
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
	lists := make([][]int32, n)
	coord := make([]int, len(dims))
	for v := 0; v < n; v++ {
		row := make([]int32, 0, 2*len(dims))
		for i, c := range coord {
			if torus {
				up := v + ((c+1)%dims[i]-c)*stride[i]
				dn := v + ((c+dims[i]-1)%dims[i]-c)*stride[i]
				row = append(row, int32(up), int32(dn))
			} else {
				if c+1 < dims[i] {
					row = append(row, int32(v+stride[i]))
				}
				if c > 0 {
					row = append(row, int32(v-stride[i]))
				}
			}
		}
		lists[v] = row
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
	return fromAdjacency(lists, fmt.Sprintf("%s%v", kind, dims))
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
	lists := make([][]int32, n)
	slab := make([]int32, 0, n*dim)
	for v := 0; v < n; v++ {
		start := len(slab)
		// Ascending, so the row finish finds it sorted: clear each set bit
		// from the highest down, then set each clear bit from the lowest up.
		for b := dim - 1; b >= 0; b-- {
			if v&(1<<uint(b)) != 0 {
				slab = append(slab, int32(v^(1<<uint(b))))
			}
		}
		for b := 0; b < dim; b++ {
			if v&(1<<uint(b)) == 0 {
				slab = append(slab, int32(v|(1<<uint(b))))
			}
		}
		lists[v] = slab[start:]
	}
	return fromAdjacency(lists, fmt.Sprintf("hypercube(%d)", dim))
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
	lists := make([][]int32, n)
	firstLeaf := n - level
	for v := 0; v < n; v++ {
		var row []int32
		if v > 0 {
			row = append(row, int32((v-1)/arity))
		}
		if v < firstLeaf {
			for c := 0; c < arity; c++ {
				row = append(row, int32(v*arity+c+1))
			}
		}
		lists[v] = row
	}
	return fromAdjacency(lists, fmt.Sprintf("tree(a=%d,h=%d)", arity, height))
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
	lists := make([][]int32, n)
	for i := 0; i < m; i++ {
		rowA := make([]int32, 0, m)
		rowB := make([]int32, 0, m)
		for j := 0; j < m; j++ {
			if j != i {
				rowA = append(rowA, int32(j))
				rowB = append(rowB, int32(m+j))
			}
		}
		lists[i] = rowA
		lists[m+i] = rowB
	}
	// Attach the path endpoints: center connects to vertex 0 of clique A and
	// vertex m of clique B ("a path of length 2" in the paper).
	lists[0] = append(lists[0], center)
	lists[m] = append(lists[m], center)
	lists[center] = []int32{0, int32(m)}
	g := fromAdjacency(lists, fmt.Sprintf("barbell(%d)", n))
	return g, center
}

// Lollipop returns the lollipop graph: a clique on cliqueN vertices with a
// path of pathN extra vertices attached to clique vertex 0. Its cover time
// is the Θ(n³) worst case cited in the paper's preliminaries.
func Lollipop(cliqueN, pathN int) *Graph {
	if cliqueN < 3 || pathN < 1 {
		panic("graph: Lollipop requires cliqueN >= 3, pathN >= 1")
	}
	n := cliqueN + pathN
	lists := make([][]int32, n)
	for i := 0; i < cliqueN; i++ {
		row := make([]int32, 0, cliqueN-1)
		for j := 0; j < cliqueN; j++ {
			if j != i {
				row = append(row, int32(j))
			}
		}
		lists[i] = row
	}
	// Path vertices cliqueN .. n-1 hang off clique vertex 0.
	lists[0] = append(lists[0], int32(cliqueN))
	for i := cliqueN; i < n; i++ {
		var row []int32
		if i == cliqueN {
			row = append(row, 0)
		} else {
			row = append(row, int32(i-1))
		}
		if i+1 < n {
			row = append(row, int32(i+1))
		}
		lists[i] = row
	}
	return fromAdjacency(lists, fmt.Sprintf("lollipop(%d+%d)", cliqueN, pathN))
}
