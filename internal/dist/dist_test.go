package dist

import (
	"math/rand"
	"sync"
	"testing"

	"steinerforest/internal/congest"
	"steinerforest/internal/graph"
	"steinerforest/internal/rational"
)

// testItemKind is the collect-pipeline item of these tests (kind range
// 100+ is reserved for tests): C carries the value, accounted like the old
// boxed 32-bit item plus its 2-bit envelope.
const testItemKind uint16 = 120

func init() { congest.RegisterWireKind(testItemKind, 32+2) }

func intItem(v int) congest.Wire { return congest.Wire{Kind: testItemKind, C: int64(v)} }

func intItemCmp(a, b congest.Wire) int {
	switch {
	case a.C < b.C:
		return -1
	case a.C > b.C:
		return 1
	default:
		return 0
	}
}

// testTokKind is the 32-bit token payload of the RunQuiet test.
const testTokKind uint16 = 121

func init() { congest.RegisterWireKind(testTokKind, 32) }

type results struct {
	mu    sync.Mutex
	trees map[int]*Tree
	items map[int][]congest.Wire
	vals  map[int]int64
	bfs   map[int]BFResult
}

func newResults() *results {
	return &results{
		trees: make(map[int]*Tree),
		items: make(map[int][]congest.Wire),
		vals:  make(map[int]int64),
		bfs:   make(map[int]BFResult),
	}
}

func TestBuildBFSTreeShape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial, g := range []*graph.Graph{
		graph.Path(9, graph.UnitWeights),
		graph.Grid(4, 5, graph.UnitWeights),
		graph.GNP(24, 0.15, graph.UnitWeights, rng),
		graph.Star(8, graph.UnitWeights),
		graph.New(1),
	} {
		res := newResults()
		_, err := congest.Run(g, func(h *congest.Host) {
			tr := BuildBFS(h)
			res.mu.Lock()
			res.trees[h.ID()] = tr
			res.mu.Unlock()
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		ref := g.BFS(0)
		height := 0
		for _, d := range ref.Dist {
			if d > height {
				height = d
			}
		}
		for v := 0; v < g.N(); v++ {
			tr := res.trees[v]
			if tr.Depth != ref.Dist[v] {
				t.Fatalf("trial %d node %d: depth %d, want %d", trial, v, tr.Depth, ref.Dist[v])
			}
			if tr.Height != height {
				t.Fatalf("trial %d node %d: height %d, want %d", trial, v, tr.Height, height)
			}
			if v == 0 {
				if !tr.IsRoot() {
					t.Fatalf("trial %d: root has a parent", trial)
				}
				continue
			}
			// The parent must be a neighbor one BFS level up.
			parent := int(g.Neighbors(v)[tr.ParentPort].To)
			if ref.Dist[parent] != ref.Dist[v]-1 {
				t.Fatalf("trial %d node %d: parent %d at depth %d", trial, v, parent, ref.Dist[parent])
			}
			// And the child relation must be symmetric.
			ptree := res.trees[parent]
			found := false
			for _, cp := range ptree.ChildPorts {
				if int(g.Neighbors(parent)[cp].To) == v {
					found = true
				}
			}
			if !found {
				t.Fatalf("trial %d: node %d not registered as child of %d", trial, v, parent)
			}
		}
	}
}

func TestUpcastBroadcastCollectsSorted(t *testing.T) {
	g := graph.Grid(4, 4, graph.UnitWeights)
	res := newResults()
	_, err := congest.Run(g, func(h *congest.Host) {
		tr := BuildBFS(h)
		local := []congest.Wire{intItem(100 - h.ID()), intItem(h.ID())}
		got := UpcastBroadcast(h, tr, local, intItemCmp, nil, nil)
		res.mu.Lock()
		res.items[h.ID()] = got
		res.mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * g.N()
	for v := 0; v < g.N(); v++ {
		got := res.items[v]
		if len(got) != want {
			t.Fatalf("node %d: %d items, want %d", v, len(got), want)
		}
		for i := 1; i < len(got); i++ {
			if intItemCmp(got[i], got[i-1]) < 0 {
				t.Fatalf("node %d: stream not sorted at %d", v, i)
			}
		}
		for i, it := range got {
			if it != res.items[0][i] {
				t.Fatalf("node %d disagrees with node 0 at %d", v, i)
			}
		}
	}
}

func TestUpcastBroadcastFilterAndStop(t *testing.T) {
	g := graph.Path(10, graph.UnitWeights)
	res := newResults()
	_, err := congest.Run(g, func(h *congest.Host) {
		tr := BuildBFS(h)
		local := []congest.Wire{intItem(h.ID())}
		// Filter: drop odd values; stop after (and including) value 6.
		newFilter := func() Filter {
			return func(x congest.Wire) bool { return x.C%2 == 0 }
		}
		stop := func(x congest.Wire) bool { return x.C >= 6 }
		got := UpcastBroadcast(h, tr, local, intItemCmp, newFilter, stop)
		res.mu.Lock()
		res.items[h.ID()] = got
		res.mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{0, 2, 4, 6}
	for v := 0; v < g.N(); v++ {
		got := res.items[v]
		if len(got) != len(want) {
			t.Fatalf("node %d: items %v, want %v", v, got, want)
		}
		for i, w := range want {
			if got[i].C != w {
				t.Fatalf("node %d: item %d = %d, want %d", v, i, got[i].C, w)
			}
		}
	}
}

func TestMaxAndBroadcastList(t *testing.T) {
	g := graph.Grid(3, 5, graph.UnitWeights)
	res := newResults()
	_, err := congest.Run(g, func(h *congest.Host) {
		tr := BuildBFS(h)
		m := Max(h, tr, int64(h.ID()*h.ID()))
		var items []congest.Wire
		if tr.IsRoot() {
			items = []congest.Wire{intItem(41), intItem(7)}
		}
		got := BroadcastList(h, tr, items)
		res.mu.Lock()
		res.vals[h.ID()] = m
		res.items[h.ID()] = []congest.Wire{got[0], got[1]}
		res.mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	wantMax := int64((g.N() - 1) * (g.N() - 1))
	for v := 0; v < g.N(); v++ {
		if res.vals[v] != wantMax {
			t.Fatalf("node %d: max %d, want %d", v, res.vals[v], wantMax)
		}
		if res.items[v][0].C != 41 || res.items[v][1].C != 7 {
			t.Fatalf("node %d: broadcast list %v out of order", v, res.items[v])
		}
	}
}

func TestBellmanFordMatchesDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 5; trial++ {
		g := graph.GNP(18, 0.25, graph.RandomWeights(rng, 30), rng)
		sources := map[int]bool{0: true, 5: true}
		res := newResults()
		_, err := congest.Run(g, func(h *congest.Host) {
			tr := BuildBFS(h)
			bf := BellmanFord(h, tr, BFConfig{IsSource: sources[h.ID()], SourceID: h.ID()})
			res.mu.Lock()
			res.bfs[h.ID()] = bf
			res.mu.Unlock()
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		d0, d5 := g.Dijkstra(0), g.Dijkstra(5)
		for v := 0; v < g.N(); v++ {
			want := d0.Dist[v]
			if d5.Dist[v] < want {
				want = d5.Dist[v]
			}
			bf := res.bfs[v]
			if !bf.Reached {
				t.Fatalf("trial %d node %d unreached", trial, v)
			}
			if bf.Dist.Cmp(rational.FromInt(want)) != 0 {
				t.Fatalf("trial %d node %d: dist %s, want %d", trial, v, bf.Dist, want)
			}
			if sources[v] && (bf.Source != v || bf.ParentPort != -1) {
				t.Fatalf("trial %d: source %d adopted %d", trial, v, bf.Source)
			}
		}
	}
}

func TestRunQuietTokenDiffusion(t *testing.T) {
	g := graph.Path(12, graph.UnitWeights)
	res := newResults()
	_, err := congest.Run(g, func(h *congest.Host) {
		tr := BuildBFS(h)
		// A token starts at node 0 and hops to the right end, one edge per
		// payload round; quiescence must not fire before it arrives.
		has := h.ID() == 0
		step := func(_ int, in []congest.Recv) ([]congest.Send, bool) {
			for _, rc := range in {
				if rc.Wire.Kind == testTokKind {
					has = true
				}
			}
			if !has {
				return nil, false
			}
			if p, ok := h.PortOf(h.ID() + 1); ok {
				has = false
				return []congest.Send{{Port: p, Wire: congest.Wire{Kind: testTokKind, C: 1}}}, false
			}
			return nil, false // right end: keep it
		}
		RunQuiet(h, tr, step)
		res.mu.Lock()
		if has {
			res.vals[h.ID()] = 1
		}
		res.mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.vals[g.N()-1] != 1 {
		t.Fatal("token lost: quiescence fired before diffusion finished")
	}
	for v := 0; v < g.N()-1; v++ {
		if res.vals[v] == 1 {
			t.Fatalf("node %d still holds the token", v)
		}
	}
}
