package graph

import (
	"math/rand"
	"testing"
)

func TestAddEdgeAndLookup(t *testing.T) {
	g := New(4)
	i0 := g.AddEdge(2, 1, 5)
	i1 := g.AddEdge(0, 3, 7)
	if g.N() != 4 || g.M() != 2 {
		t.Fatalf("got n=%d m=%d", g.N(), g.M())
	}
	if e := g.Edge(i0); e.U != 1 || e.V != 2 || e.Weight != 5 {
		t.Errorf("edge 0 = %+v", e)
	}
	if idx, ok := g.EdgeBetween(3, 0); !ok || idx != i1 {
		t.Errorf("EdgeBetween(3,0) = %d, %v", idx, ok)
	}
	if _, ok := g.EdgeBetween(1, 3); ok {
		t.Error("EdgeBetween(1,3) should not exist")
	}
	if _, ok := g.EdgeBetween(-1, 2); ok {
		t.Error("out-of-range EdgeBetween should be false")
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := New(5)
	g.AddEdge(2, 4, 1)
	g.AddEdge(2, 0, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(2, 1, 1)
	prev := int32(-1)
	for _, h := range g.Neighbors(2) {
		if h.To <= prev {
			t.Fatalf("neighbors not sorted: %v", g.Neighbors(2))
		}
		prev = h.To
	}
	if g.Degree(2) != 4 {
		t.Errorf("degree = %d", g.Degree(2))
	}
}

func TestAddEdgePanics(t *testing.T) {
	tests := []struct {
		name string
		f    func(*Graph)
	}{
		{"self loop", func(g *Graph) { g.AddEdge(1, 1, 1) }},
		{"out of range", func(g *Graph) { g.AddEdge(0, 9, 1) }},
		{"zero weight", func(g *Graph) { g.AddEdge(0, 1, 0) }},
		{"duplicate", func(g *Graph) { g.AddEdge(0, 1, 1); g.AddEdge(1, 0, 2) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			g := New(3)
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			tt.f(g)
		})
	}
}

func TestBFS(t *testing.T) {
	g := Path(5, UnitWeights)
	r := g.BFS(0)
	for i := 0; i < 5; i++ {
		if r.Dist[i] != i {
			t.Errorf("dist[%d] = %d", i, r.Dist[i])
		}
	}
	if r.Eccentricity() != 4 {
		t.Errorf("ecc = %d", r.Eccentricity())
	}
	if r.Parent[0] != -1 || r.Parent[3] != 2 {
		t.Errorf("parents = %v", r.Parent)
	}
}

func TestBFSDisconnected(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	r := g.BFS(0)
	if r.Dist[2] != -1 || r.Dist[3] != -1 {
		t.Errorf("dist = %v", r.Dist)
	}
	if g.Connected() {
		t.Error("graph should be disconnected")
	}
	if _, c := g.Components(); c != 2 {
		t.Errorf("components = %d", c)
	}
}

func TestDiameter(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		want int
	}{
		{"path", Path(6, UnitWeights), 5},
		{"cycle", Cycle(6, UnitWeights), 3},
		{"star", Star(5, UnitWeights), 2},
		{"grid", Grid(3, 4, UnitWeights), 5},
		{"complete", Complete(4, UnitWeights), 1},
		{"single", New(1), 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.g.Diameter(); got != tt.want {
				t.Errorf("D = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestDijkstraAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(10)
		g := GNP(n, 0.4, RandomWeights(rng, 20), rng)
		src := rng.Intn(n)
		got := g.Dijkstra(src)
		want := bellmanFordRef(g, src)
		for v := 0; v < n; v++ {
			if got.Dist[v] != want[v] {
				t.Fatalf("trial %d: dist[%d] = %d, want %d", trial, v, got.Dist[v], want[v])
			}
		}
	}
}

func bellmanFordRef(g *Graph, src int) []int64 {
	dist := make([]int64, g.N())
	for i := range dist {
		dist[i] = Infinity
	}
	dist[src] = 0
	for iter := 0; iter < g.N(); iter++ {
		for _, e := range g.Edges() {
			if dist[e.U] != Infinity && dist[e.U]+e.Weight < dist[e.V] {
				dist[e.V] = dist[e.U] + e.Weight
			}
			if dist[e.V] != Infinity && dist[e.V]+e.Weight < dist[e.U] {
				dist[e.U] = dist[e.V] + e.Weight
			}
		}
	}
	return dist
}

func TestDijkstraPath(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(0, 2, 5)
	g.AddEdge(2, 3, 1)
	r := g.Dijkstra(0)
	want := []int{0, 1, 2, 3}
	got := r.Path(3)
	if len(got) != len(want) {
		t.Fatalf("path = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("path = %v, want %v", got, want)
		}
	}
	if r.Hops[3] != 3 || r.Dist[3] != 3 {
		t.Errorf("hops=%d dist=%d", r.Hops[3], r.Dist[3])
	}
}

func TestDijkstraPrefersFewerHops(t *testing.T) {
	// Two shortest paths of weight 4 from 0 to 3: 0-1-2-3 (3 hops, weights
	// 2,1,1) and 0-3 direct (1 hop, weight 4).
	g := New(4)
	g.AddEdge(0, 1, 2)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(0, 3, 4)
	r := g.Dijkstra(0)
	if r.Dist[3] != 4 || r.Hops[3] != 1 {
		t.Errorf("dist=%d hops=%d, want 4,1", r.Dist[3], r.Hops[3])
	}
}

func TestShortestPathDiameter(t *testing.T) {
	// Heavy direct edge, light long path: every shortest path uses the
	// path, so s = n-1 even though D = 1.
	n := 6
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1, 1)
	}
	g.AddEdge(0, n-1, 100)
	if s := g.ShortestPathDiameter(); s != n-1 {
		t.Errorf("s = %d, want %d", s, n-1)
	}
	// The heavy chord shrinks the unweighted diameter below s.
	if d := g.Diameter(); d >= n-1 {
		t.Errorf("D = %d, want < %d", d, n-1)
	}
	// Unit-weight clique: s = 1.
	if s := Complete(5, UnitWeights).ShortestPathDiameter(); s != 1 {
		t.Errorf("clique s = %d", s)
	}
}

func TestWeightedDiameter(t *testing.T) {
	g := Path(4, func(u, v int) int64 { return int64(u + 1) })
	// Weights 1,2,3 -> WD = 6.
	if wd := g.WeightedDiameter(); wd != 6 {
		t.Errorf("WD = %d, want 6", wd)
	}
}

func TestMSTPath(t *testing.T) {
	g := Cycle(5, UnitWeights)
	picked, total := g.MST()
	if len(picked) != 4 || total != 4 {
		t.Errorf("picked=%d total=%d", len(picked), total)
	}
}

func TestMSTAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(5)
		g := GNP(n, 0.5, RandomWeights(rng, 9), rng)
		_, got := g.MST()
		want := bruteMST(g)
		if got != want {
			t.Fatalf("trial %d: MST = %d, want %d", trial, got, want)
		}
	}
}

// bruteMST enumerates all spanning edge subsets of size n-1.
func bruteMST(g *Graph) int64 {
	m := g.M()
	n := g.N()
	best := Infinity
	for mask := 0; mask < 1<<m; mask++ {
		if popcount(mask) != n-1 {
			continue
		}
		uf := NewUnionFind(n)
		var w int64
		ok := true
		for i := 0; i < m; i++ {
			if mask&(1<<i) == 0 {
				continue
			}
			e := g.Edge(i)
			if !uf.Union(e.U, e.V) {
				ok = false
				break
			}
			w += e.Weight
		}
		if ok && uf.Sets() == 1 && w < best {
			best = w
		}
	}
	return best
}

func popcount(x int) int {
	c := 0
	for ; x != 0; x &= x - 1 {
		c++
	}
	return c
}

func TestSteinerMetricMST(t *testing.T) {
	// Star with unit spokes; terminals are three leaves. Metric distances
	// are all 2, so metric MST = 4.
	g := Star(5, UnitWeights)
	if got := g.SteinerMetricMST([]int{1, 2, 3}); got != 4 {
		t.Errorf("metric MST = %d, want 4", got)
	}
	if got := g.SteinerMetricMST([]int{2}); got != 0 {
		t.Errorf("single terminal = %d", got)
	}
}

func TestUnionFind(t *testing.T) {
	uf := NewUnionFind(5)
	if uf.Sets() != 5 {
		t.Fatalf("sets = %d", uf.Sets())
	}
	if !uf.Union(0, 1) || !uf.Union(2, 3) {
		t.Fatal("fresh unions should succeed")
	}
	if uf.Union(1, 0) {
		t.Error("repeat union should fail")
	}
	if !uf.Connected(0, 1) || uf.Connected(0, 2) {
		t.Error("connectivity wrong")
	}
	c := NewUnionFind(9) // a larger copy target: its arrays are reused
	c.Union(4, 5)
	parent := &c.parent[0]
	c.CopyFrom(uf)
	if &c.parent[0] != parent || len(c.parent) != 5 {
		t.Error("CopyFrom did not reuse the target's arrays")
	}
	if c.Connected(4, 3) || !c.Connected(2, 3) {
		t.Error("copy does not match the original")
	}
	c.Union(0, 2)
	if uf.Connected(0, 2) {
		t.Error("copy mutated original")
	}
	if uf.Sets() != 3 || c.Sets() != 2 {
		t.Errorf("sets = %d, %d", uf.Sets(), c.Sets())
	}
}

func TestGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tests := []struct {
		name      string
		g         *Graph
		n, m      int
		connected bool
	}{
		{"path", Path(5, UnitWeights), 5, 4, true},
		{"cycle", Cycle(5, UnitWeights), 5, 5, true},
		{"star", Star(6, UnitWeights), 6, 5, true},
		{"grid", Grid(3, 3, UnitWeights), 9, 12, true},
		{"complete", Complete(5, UnitWeights), 5, 10, true},
		{"tree", RandomTree(20, UnitWeights, rng), 20, 19, true},
		{"lollipop", Lollipop(4, 6, UnitWeights), 10, 12, true},
		{"caterpillar", Caterpillar(4, 2, UnitWeights), 12, 11, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.g.N() != tt.n || tt.g.M() != tt.m {
				t.Errorf("n=%d m=%d, want %d, %d", tt.g.N(), tt.g.M(), tt.n, tt.m)
			}
			if tt.g.Connected() != tt.connected {
				t.Errorf("connected = %v", tt.g.Connected())
			}
		})
	}
}

func TestGNPConnectedAndSimple(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		g := GNP(30, 0.1, RandomWeights(rng, 100), rng)
		if !g.Connected() {
			t.Fatal("GNP graph disconnected")
		}
		seen := map[[2]int]bool{}
		for _, e := range g.Edges() {
			key := [2]int{e.U, e.V}
			if seen[key] {
				t.Fatal("duplicate edge")
			}
			seen[key] = true
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	g := Path(4, UnitWeights)
	c := g.Clone()
	c.AddEdge(0, 2, 9)
	if g.M() != 3 || c.M() != 4 {
		t.Errorf("m = %d, %d", g.M(), c.M())
	}
}

func TestSubgraphWeightAndTotals(t *testing.T) {
	g := Path(4, func(u, v int) int64 { return int64(10 * (u + 1)) })
	if g.TotalWeight() != 60 {
		t.Errorf("total = %d", g.TotalWeight())
	}
	if g.MaxWeight() != 30 {
		t.Errorf("max = %d", g.MaxWeight())
	}
	sel := make([]bool, g.M())
	sel[0], sel[2] = true, true
	if got := g.SubgraphWeight(sel); got != 40 {
		t.Errorf("subgraph weight = %d", got)
	}
}

func TestLollipopShortestPathDiameter(t *testing.T) {
	g := Lollipop(5, 10, UnitWeights)
	if s := g.ShortestPathDiameter(); s < 10 {
		t.Errorf("lollipop s = %d, want >= 10", s)
	}
}
