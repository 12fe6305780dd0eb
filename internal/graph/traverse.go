package graph

// BFS returns the vector of hop distances from src, with -1 for vertices
// unreachable from src. It allocates one int32 slice of length n and reuses
// a queue internally.
func (g *Graph) BFS(src int32) []int32 {
	n := g.N()
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]int32, 1, n)
	queue[0] = src
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		dv := dist[v]
		for _, u := range g.Neighbors(v) {
			if dist[u] < 0 {
				dist[u] = dv + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}

// The states of Graph.connected.
const (
	connUnknown int32 = iota
	connYes
	connNo
)

// IsConnected reports whether the graph is connected (true for n <= 1).
// The first call runs one BFS and memoizes the answer on the graph, so
// later calls cost one atomic load and allocate nothing. Concurrent first
// calls may each run the BFS; they store the same answer.
func (g *Graph) IsConnected() bool {
	if s := g.connected.Load(); s != connUnknown {
		return s == connYes
	}
	state := connYes
	if g.N() > 1 {
		for _, d := range g.BFS(0) {
			if d < 0 {
				state = connNo
				break
			}
		}
	}
	g.connected.Store(state)
	return state == connYes
}

// Components returns the number of connected components and a component id
// per vertex.
func (g *Graph) Components() (count int, id []int32) {
	n := g.N()
	id = make([]int32, n)
	for i := range id {
		id[i] = -1
	}
	var queue []int32
	for s := int32(0); s < int32(n); s++ {
		if id[s] >= 0 {
			continue
		}
		cid := int32(count)
		count++
		id[s] = cid
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, u := range g.Neighbors(v) {
				if id[u] < 0 {
					id[u] = cid
					queue = append(queue, u)
				}
			}
		}
	}
	return count, id
}

// Eccentricity returns the maximum BFS distance from src; it is -1 if any
// vertex is unreachable.
func (g *Graph) Eccentricity(src int32) int {
	dist := g.BFS(src)
	ecc := 0
	for _, d := range dist {
		if d < 0 {
			return -1
		}
		if int(d) > ecc {
			ecc = int(d)
		}
	}
	return ecc
}

// Diameter returns the exact diameter by running a BFS from every vertex.
// It is O(n·m) and intended for the moderate sizes used in experiments;
// it returns -1 for disconnected graphs.
func (g *Graph) Diameter() int {
	n := g.N()
	if n == 0 {
		return 0
	}
	diam := 0
	for v := int32(0); v < int32(n); v++ {
		e := g.Eccentricity(v)
		if e < 0 {
			return -1
		}
		if e > diam {
			diam = e
		}
	}
	return diam
}

// IsBipartite reports whether the graph is bipartite. Self-loops make a
// graph non-bipartite. Bipartite graphs yield periodic simple random walks,
// which is why the mixing-time computations offer a lazy variant.
func (g *Graph) IsBipartite() bool {
	n := g.N()
	color := make([]int8, n) // 0 unknown, 1/2 sides
	var queue []int32
	for s := int32(0); s < int32(n); s++ {
		if color[s] != 0 {
			continue
		}
		color[s] = 1
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, u := range g.Neighbors(v) {
				if u == v {
					return false
				}
				if color[u] == 0 {
					color[u] = 3 - color[v]
					queue = append(queue, u)
				} else if color[u] == color[v] {
					return false
				}
			}
		}
	}
	return true
}

// DegreeHistogram returns a map from degree to the number of vertices with
// that degree.
func (g *Graph) DegreeHistogram() map[int]int {
	h := make(map[int]int)
	for v := int32(0); v < int32(g.N()); v++ {
		h[g.Degree(v)]++
	}
	return h
}
