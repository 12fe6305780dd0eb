package graph

import (
	"fmt"
	"slices"
)

// CartesianProduct returns the Cartesian product G □ H: vertices are pairs
// (g,h) encoded as g*H.N()+h, and (g,h)~(g',h') iff (g=g' and h~h') or
// (h=h' and g~g'). Classic identities make this a strong generator test
// bed: Hypercube(d) = K₂ □ ... □ K₂ and Torus2D(s) = C_s □ C_s.
func CartesianProduct(g, h *Graph) *Graph {
	ng, nh := g.N(), h.N()
	if ng == 0 || nh == 0 {
		panic("graph: product with empty factor")
	}
	n := ng * nh
	w := newRowWriter(n, ng*h.TotalDegree()+nh*g.TotalDegree())
	for a := 0; a < ng; a++ {
		ga := g.Neighbors(int32(a))
		// (a2,b) with a2 < a sorts before every (a,b2), and a2 >= a after.
		split, _ := slices.BinarySearch(ga, int32(a))
		for b := 0; b < nh; b++ {
			for _, a2 := range ga[:split] {
				w.add(a2*int32(nh) + int32(b))
			}
			for _, b2 := range h.Neighbors(int32(b)) {
				w.add(int32(a)*int32(nh) + b2)
			}
			for _, a2 := range ga[split:] {
				w.add(a2*int32(nh) + int32(b))
			}
			w.endRow()
		}
	}
	return w.finish(fmt.Sprintf("(%s)□(%s)", g.Name(), h.Name()))
}

// DisjointUnion returns G ⊔ H with H's vertices shifted by G.N(). The result
// is disconnected by construction; useful for negative-path testing of
// connectivity-requiring algorithms.
func DisjointUnion(g, h *Graph) *Graph {
	ng := g.N()
	w := newRowWriter(ng+h.N(), g.TotalDegree()+h.TotalDegree())
	for v := 0; v < ng; v++ {
		w.add(g.Neighbors(int32(v))...)
		w.endRow()
	}
	for v := 0; v < h.N(); v++ {
		for _, u := range h.Neighbors(int32(v)) {
			w.add(u + int32(ng))
		}
		w.endRow()
	}
	return w.finish(fmt.Sprintf("(%s)+(%s)", g.Name(), h.Name()))
}

// WithSelfLoops returns a copy of g with a self-loop added at every vertex
// that lacks one (the uniform-lazy variant used by Lemma 12 and by chains
// that need aperiodicity without changing the vertex set).
func WithSelfLoops(g *Graph) *Graph {
	n := g.N()
	w := newRowWriter(n, g.TotalDegree()+n)
	for v := 0; v < n; v++ {
		nb := g.Neighbors(int32(v))
		i, found := slices.BinarySearch(nb, int32(v))
		w.add(nb[:i]...)
		if !found {
			w.add(int32(v))
		}
		w.add(nb[i:]...)
		w.endRow()
	}
	return w.finish(g.Name() + "+loops")
}

// Subgraph returns the induced subgraph on the given vertices (which are
// relabeled 0..len-1 in the given order) plus the mapping used. Duplicate
// vertices panic.
func Subgraph(g *Graph, vertices []int32) (*Graph, map[int32]int32) {
	relabel := make(map[int32]int32, len(vertices))
	for i, v := range vertices {
		if v < 0 || int(v) >= g.N() {
			panic(fmt.Sprintf("graph: subgraph vertex %d out of range", v))
		}
		if _, dup := relabel[v]; dup {
			panic(fmt.Sprintf("graph: duplicate subgraph vertex %d", v))
		}
		relabel[v] = int32(i)
	}
	w := newRowWriter(len(vertices), 0)
	for _, v := range vertices {
		for _, u := range g.Neighbors(v) {
			if nu, ok := relabel[u]; ok {
				w.add(nu)
			}
		}
		w.endRow()
	}
	return w.finish(fmt.Sprintf("%s[%d]", g.Name(), len(vertices))), relabel
}

// Wheel returns the wheel graph: a cycle on n-1 vertices (1..n-1) plus a hub
// (vertex 0) adjacent to all of them. n >= 5 keeps the rim a proper cycle.
func Wheel(n int) *Graph {
	if n < 5 {
		panic("graph: Wheel requires n >= 5")
	}
	rim := n - 1
	w := newRowWriter(n, 4*rim)
	for i := 1; i < n; i++ {
		w.add(int32(i))
	}
	w.endRow()
	for i := 1; i < n; i++ {
		left := int32(1 + ((i - 1 + rim - 1) % rim))
		right := int32(1 + (i % rim))
		w.add(0, min(left, right), max(left, right))
		w.endRow()
	}
	return w.finish(fmt.Sprintf("wheel(%d)", n))
}

// CompleteBipartite returns K_{a,b}: sides [0,a) and [a,a+b).
func CompleteBipartite(a, b int) *Graph {
	if a < 1 || b < 1 {
		panic("graph: CompleteBipartite requires a,b >= 1")
	}
	w := newRowWriter(a+b, 2*a*b)
	for i := 0; i < a; i++ {
		for j := 0; j < b; j++ {
			w.add(int32(a + j))
		}
		w.endRow()
	}
	for j := 0; j < b; j++ {
		for i := 0; i < a; i++ {
			w.add(int32(i))
		}
		w.endRow()
	}
	return w.finish(fmt.Sprintf("kbipartite(%d,%d)", a, b))
}
