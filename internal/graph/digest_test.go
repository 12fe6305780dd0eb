package graph_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"manywalks/internal/dynamic"
	"manywalks/internal/graph"
	"manywalks/internal/rng"
)

// The graph digests: every constructor, called at a small and a large size,
// reduced to a SHA-256 of the CSR arrays (offsets, adjacency, weight bits)
// together with M(), SelfLoops() and Name(). testdata/digests.txt holds one
// line per call, "<call>\t<digest>". Any change to how graphs are assembled
// must leave every line unchanged. Regenerate with
//
//	go test ./internal/graph -run TestGraphDigests -update
//
// only when a graph is meant to change.

var updateDigests = flag.Bool("update", false, "rewrite testdata/digests.txt from the current code")

const digestFile = "testdata/digests.txt"

// graphDigest renders the digest of everything a graph exposes.
func graphDigest(g *graph.Graph) string {
	h := sha256.New()
	offsets, adj := g.CSR()
	var word [8]byte
	put32 := func(v int32) {
		binary.LittleEndian.PutUint32(word[:4], uint32(v))
		h.Write(word[:4])
	}
	for _, o := range offsets {
		put32(o)
	}
	for _, u := range adj {
		put32(u)
	}
	if g.Weighted() {
		h.Write([]byte("weights"))
		for _, w := range g.CSRWeights() {
			binary.LittleEndian.PutUint64(word[:], math.Float64bits(w))
			h.Write(word[:])
		}
	}
	fmt.Fprintf(h, "m=%d loops=%d name=%q", g.M(), g.SelfLoops(), g.Name())
	return fmt.Sprintf("n=%d adj=%d m=%d loops=%d sha256:%x", g.N(), len(adj), g.M(), g.SelfLoops(), h.Sum(nil))
}

// dyadicMultigraph writes a random weighted multigraph in the edge-list
// format. Every weight is a multiple of 1/8 below 4 and every vertex pair
// repeats a handful of times at most, so each duplicate sum is exact and
// does not depend on the order the reader adds the duplicates in.
func dyadicMultigraph(n, edges int, seed uint64) string {
	r := rng.New(seed)
	var sb strings.Builder
	fmt.Fprintf(&sb, "# name dyadic(%d,%d)\n%d %d\n", n, edges, n, edges)
	for e := 0; e < edges; e++ {
		u, v := r.Intn(n), r.Intn(n)
		if r.Intn(3) == 0 {
			fmt.Fprintf(&sb, "%d %d\n", u, v)
			continue
		}
		fmt.Fprintf(&sb, "%d %d %g\n", u, v, float64(1+r.Intn(31))/8)
	}
	return sb.String()
}

type digestCall struct {
	call  string
	build func() (*graph.Graph, error)
}

func specCall(spec string) digestCall {
	return digestCall{"ParseSpec(" + spec + ")", func() (*graph.Graph, error) { return graph.ParseSpec(spec) }}
}

func plainCall(call string, build func() *graph.Graph) digestCall {
	return digestCall{call, func() (*graph.Graph, error) { return build(), nil }}
}

func digestCalls() []digestCall {
	var calls []digestCall
	for _, spec := range []string{
		"cycle:3", "cycle:100000",
		"path:2", "path:100000",
		"complete:2", "complete:1000", "complete:4:0", "complete:5:1", "complete:300:1",
		"star:2", "star:50000",
		"torus:3", "torus:300",
		"grid2d:2", "grid2d:300",
		"hypercube:1", "hypercube:18",
		"tree:2:1", "tree:3:9",
		"barbell:7", "barbell:401",
		"lollipop:3:1", "lollipop:200:300",
		"margulis:2", "margulis:3", "margulis:7", "margulis:24", "margulis:128", "margulis:512",
		"expander:5",
		"chords:5", "chords:10007",
	} {
		calls = append(calls, specCall(spec))
	}
	calls = append(calls,
		plainCall("Grid([3 4 5],torus)", func() *graph.Graph { return graph.Grid([]int{3, 4, 5}, true) }),
		plainCall("Grid([2 3 4],open)", func() *graph.Graph { return graph.Grid([]int{2, 3, 4}, false) }),
		plainCall("CartesianProduct(Cycle(5),Path(4))", func() *graph.Graph {
			return graph.CartesianProduct(graph.Cycle(5), graph.Path(4))
		}),
		plainCall("CartesianProduct(Hypercube(3),Complete(4,loops))", func() *graph.Graph {
			return graph.CartesianProduct(graph.Hypercube(3), graph.Complete(4, true))
		}),
		plainCall("CartesianProduct(Margulis(16),Cycle(40))", func() *graph.Graph {
			return graph.CartesianProduct(graph.MargulisExpander(16), graph.Cycle(40))
		}),
		plainCall("DisjointUnion(Cycle(5),Star(6))", func() *graph.Graph {
			return graph.DisjointUnion(graph.Cycle(5), graph.Star(6))
		}),
		plainCall("DisjointUnion(Torus2D(40),Margulis(30))", func() *graph.Graph {
			return graph.DisjointUnion(graph.Torus2D(40), graph.MargulisExpander(30))
		}),
		plainCall("WithSelfLoops(Cycle(6))", func() *graph.Graph { return graph.WithSelfLoops(graph.Cycle(6)) }),
		plainCall("WithSelfLoops(Complete(4,loops))", func() *graph.Graph {
			return graph.WithSelfLoops(graph.Complete(4, true))
		}),
		plainCall("WithSelfLoops(Margulis(100))", func() *graph.Graph {
			return graph.WithSelfLoops(graph.MargulisExpander(100))
		}),
		plainCall("Subgraph(Torus2D(6),scrambled)", func() *graph.Graph {
			g, _ := graph.Subgraph(graph.Torus2D(6), []int32{35, 0, 7, 1, 6, 2, 14, 8, 3, 20, 33})
			return g
		}),
		plainCall("Subgraph(Margulis(64),strided)", func() *graph.Graph {
			var vs []int32
			for v := int32(4095); v >= 0; v -= 3 {
				vs = append(vs, v)
			}
			g, _ := graph.Subgraph(graph.MargulisExpander(64), vs)
			return g
		}),
		plainCall("Wheel(5)", func() *graph.Graph { return graph.Wheel(5) }),
		plainCall("Wheel(20000)", func() *graph.Graph { return graph.Wheel(20000) }),
		plainCall("CompleteBipartite(1,1)", func() *graph.Graph { return graph.CompleteBipartite(1, 1) }),
		plainCall("CompleteBipartite(300,700)", func() *graph.Graph { return graph.CompleteBipartite(300, 700) }),
		plainCall("ErdosRenyi(200,0.05,seed=12345)", func() *graph.Graph {
			return graph.ErdosRenyi(200, 0.05, rng.New(12345))
		}),
		plainCall("ErdosRenyi(20000,0.0005,seed=7)", func() *graph.Graph {
			return graph.ErdosRenyi(20000, 0.0005, rng.New(7))
		}),
		plainCall("ErdosRenyi(30,1,seed=1)", func() *graph.Graph { return graph.ErdosRenyi(30, 1, rng.New(1)) }),
		plainCall("ErdosRenyi(30,0,seed=1)", func() *graph.Graph { return graph.ErdosRenyi(30, 0, rng.New(1)) }),
		digestCall{"RandomRegular(100,4,seed=777)", func() (*graph.Graph, error) {
			return graph.RandomRegular(100, 4, rng.New(777), 100)
		}},
		digestCall{"RandomRegular(20000,6,seed=9)", func() (*graph.Graph, error) {
			return graph.RandomRegular(20000, 6, rng.New(9), 100)
		}},
		plainCall("RandomGeometric(500,0.08,seed=3)", func() *graph.Graph {
			return graph.RandomGeometric(500, 0.08, rng.New(3))
		}),
		plainCall("RandomGeometric(20000,0.012,seed=5)", func() *graph.Graph {
			return graph.RandomGeometric(20000, 0.012, rng.New(5))
		}),
		plainCall("CycleWithChords(5)", func() *graph.Graph { return graph.CycleWithChords(5) }),
		plainCall("CycleWithChords(100003)", func() *graph.Graph { return graph.CycleWithChords(100003) }),
		plainCall("Reweight(Torus2D(5))", func() *graph.Graph {
			return graph.Reweight(graph.Torus2D(5), func(u, v int32) float64 { return float64(u+v) + 0.5 })
		}),
		plainCall("Builder(empty,4)", func() *graph.Graph { return graph.NewBuilder(4).Build("empty(4)") }),
		plainCall("Builder(empty,0)", func() *graph.Graph { return graph.NewBuilder(0).Build("") }),
		plainCall("Builder(mixed weights,duplicates,loops)", func() *graph.Graph {
			b := graph.NewBuilder(6)
			b.AddEdge(0, 1)
			b.AddEdge(1, 0)
			b.AddWeightedEdge(2, 2, 0.75)
			b.AddWeightedEdge(2, 2, 0.25)
			b.AddWeightedEdge(3, 4, 2.5)
			b.AddEdge(4, 3)
			b.AddWeightedEdge(5, 0, 0.125)
			b.AddEdge(5, 5)
			return b.Build("mixed(6)")
		}),
		plainCall("DynamicSnapshot(Margulis(8),static)", func() *graph.Graph {
			return dynamic.FromGraph(graph.MargulisExpander(8)).Snapshot("dyn-static")
		}),
		plainCall("DynamicSnapshot(RandomRegular(400,4),churn)", func() *graph.Graph {
			g, err := graph.RandomRegular(400, 4, rng.New(21), 100)
			if err != nil {
				panic(err)
			}
			mg := dynamic.FromGraph(g)
			r := rng.New(22)
			for round := 0; round < 30; round++ {
				dynamic.SwapChurner{SwapsPerRound: 25}.Churn(mg, r)
			}
			return mg.Snapshot("dyn-churn")
		}),
	)
	for _, in := range []struct {
		n, edges int
		seed     uint64
	}{{4, 39, 0}, {50, 400, 1}, {3000, 40000, 2}} {
		text := dyadicMultigraph(in.n, in.edges, in.seed)
		calls = append(calls, digestCall{fmt.Sprintf("ReadEdgeList(dyadic(%d,%d,seed=%d))", in.n, in.edges, in.seed),
			func() (*graph.Graph, error) { return graph.ReadEdgeList(strings.NewReader(text)) }})
	}
	for _, src := range []struct {
		call string
		g    func() *graph.Graph
	}{
		{"Reweight(Hypercube(10))", func() *graph.Graph {
			return graph.Reweight(graph.Hypercube(10), func(u, v int32) float64 { return 1 / float64(1+(u^v)) })
		}},
		{"Margulis(40)", func() *graph.Graph { return graph.MargulisExpander(40) }},
	} {
		calls = append(calls,
			digestCall{"ReadEdgeList(WriteEdgeList(" + src.call + "))", func() (*graph.Graph, error) {
				var buf bytes.Buffer
				if err := src.g().WriteEdgeList(&buf); err != nil {
					return nil, err
				}
				return graph.ReadEdgeList(&buf)
			}},
			digestCall{"ReadBinary(WriteBinary(" + src.call + "))", func() (*graph.Graph, error) {
				var buf bytes.Buffer
				if err := src.g().WriteBinary(&buf); err != nil {
					return nil, err
				}
				return graph.ReadBinary(&buf)
			}})
	}
	return calls
}

// TestGraphDigests rebuilds every digest call and requires its digest to
// match testdata/digests.txt byte for byte.
func TestGraphDigests(t *testing.T) {
	var got [][2]string
	for _, c := range digestCalls() {
		g, err := c.build()
		if err != nil {
			t.Fatalf("%s: %v", c.call, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", c.call, err)
		}
		got = append(got, [2]string{c.call, graphDigest(g)})
	}
	if *updateDigests {
		var buf bytes.Buffer
		for _, c := range got {
			fmt.Fprintf(&buf, "%s\t%s\n", c[0], c[1])
		}
		if err := os.WriteFile(digestFile, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d graph digests", len(got))
		return
	}
	f, err := os.Open(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		call, digest, ok := strings.Cut(sc.Text(), "\t")
		if !ok {
			t.Fatalf("malformed digest line %q", sc.Text())
		}
		want[call] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, c := range got {
		w, ok := want[c[0]]
		delete(want, c[0])
		switch {
		case !ok:
			t.Errorf("no digest for %s (got %s)", c[0], c[1])
		case w != c[1]:
			t.Errorf("%s:\n got %s\nwant %s", c[0], c[1], w)
		}
	}
	for call := range want {
		t.Errorf("digest %s was not produced", call)
	}
}
