package embed

import (
	"math/rand"
	"sort"
	"testing"

	"steinerforest/internal/congest"
	"steinerforest/internal/dist"
	"steinerforest/internal/graph"
	"steinerforest/internal/rational"
)

// buildAll builds the BFS tree and then the embedding on every node of g
// and returns each node's embedding.
func buildAll(t *testing.T, g *graph.Graph, opts Options, seed int64) []*Embedding {
	t.Helper()
	embs := make([]*Embedding, g.N())
	_, err := congest.RunDriven(g, func(h *congest.Host) (congest.Request, congest.Driver) {
		tr, emb := new(dist.Tree), new(Embedding)
		embs[h.ID()] = emb
		return congest.Chain(
			func() (congest.Request, congest.Driver) { return dist.StartBFS(h, tr) },
			func() (congest.Request, congest.Driver) { return StartBuild(h, tr, opts, emb) })
	}, congest.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	return embs
}

func TestLEListsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 6; trial++ {
		g := graph.GNP(16, 0.25, graph.RandomWeights(rng, 20), rng)
		embs := buildAll(t, g, Options{}, int64(trial+1))
		// Reference: exact distances + the same ranks the nodes drew.
		ranks := make([]Rank, g.N())
		for v := 0; v < g.N(); v++ {
			ranks[v] = embs[v].Rank
		}
		for v := 0; v < g.N(); v++ {
			d := g.Dijkstra(v)
			// Brute-force Pareto frontier of (dist, rank).
			type pair struct {
				node int
				dist int64
			}
			var all []pair
			for u := 0; u < g.N(); u++ {
				all = append(all, pair{node: u, dist: d.Dist[u]})
			}
			sort.Slice(all, func(i, j int) bool {
				if all[i].dist != all[j].dist {
					return all[i].dist < all[j].dist
				}
				return ranks[all[j].node].Less(ranks[all[i].node])
			})
			var want []pair
			best := Rank{Value: -1, Node: -1}
			for _, p := range all {
				if best.Less(ranks[p.node]) {
					want = append(want, p)
					best = ranks[p.node]
				}
			}
			got := embs[v].List
			if len(got) != len(want) {
				t.Fatalf("trial %d node %d: list size %d, want %d", trial, v, len(got), len(want))
			}
			for i := range want {
				if got[i].Node != want[i].node || got[i].Dist != want[i].dist {
					t.Fatalf("trial %d node %d entry %d: got (%d,%d), want (%d,%d)",
						trial, v, i, got[i].Node, got[i].Dist, want[i].node, want[i].dist)
				}
			}
		}
	}
}

func TestAncestorsAreMaxRankInBall(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graph.GNP(14, 0.3, graph.RandomWeights(rng, 10), rng)
	embs := buildAll(t, g, Options{}, 5)
	ranks := make([]Rank, g.N())
	for v := 0; v < g.N(); v++ {
		ranks[v] = embs[v].Rank
	}
	for v := 0; v < g.N(); v++ {
		d := g.Dijkstra(v)
		for i := 0; i <= embs[v].L; i++ {
			anc, cut := embs[v].Ancestor(i)
			if cut {
				t.Fatalf("untruncated embedding returned a cutoff ancestor")
			}
			radius := embs[v].Beta.MulInt(1 << uint(i))
			// anc must be the max-rank node within the ball.
			best := v
			for u := 0; u < g.N(); u++ {
				if rational.FromInt(d.Dist[u]).LessEq(radius) && ranks[best].Less(ranks[u]) {
					best = u
				}
			}
			if anc.Node != best {
				t.Fatalf("node %d level %d: ancestor %d, want %d", v, i, anc.Node, best)
			}
		}
	}
}

func TestAncestorChainRankMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := graph.Grid(4, 4, graph.RandomWeights(rng, 6))
	embs := buildAll(t, g, Options{}, 9)
	for v := 0; v < g.N(); v++ {
		e := embs[v]
		prev, _ := e.Ancestor(0)
		for i := 1; i <= e.L; i++ {
			cur, _ := e.Ancestor(i)
			if embs[cur.Node].Rank.Less(embs[prev.Node].Rank) {
				t.Fatalf("node %d: ancestor rank decreased at level %d", v, i)
			}
			prev = cur
		}
		// Top ancestor is the global max-rank node.
		top, _ := e.Ancestor(e.L)
		for u := 0; u < g.N(); u++ {
			if embs[top.Node].Rank.Less(embs[u].Rank) {
				t.Fatalf("node %d: top ancestor %d not global max", v, top.Node)
			}
		}
	}
}

func TestTruncatedLists(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := graph.GNP(20, 0.2, graph.RandomWeights(rng, 15), rng)
	embs := buildAll(t, g, Options{Truncate: true}, 3)
	sWant := 1
	for sWant*sWant < g.N() {
		sWant++
	}
	e0 := embs[0]
	if len(e0.S) != sWant {
		t.Fatalf("|S| = %d, want %d", len(e0.S), sWant)
	}
	// S must be the top ranks.
	ranks := make([]Rank, g.N())
	for v := 0; v < g.N(); v++ {
		ranks[v] = embs[v].Rank
	}
	sorted := append([]Rank(nil), ranks...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[j].Less(sorted[i]) })
	for _, s := range e0.S {
		rank := ranks[s]
		inTop := false
		for _, r := range sorted[:sWant] {
			if r == rank {
				inTop = true
			}
		}
		if !inTop {
			t.Fatalf("S member %d not in top ranks", s)
		}
	}
	for v := 0; v < g.N(); v++ {
		e := embs[v]
		// DistS must be the true distance to the nearest S node.
		d := g.Dijkstra(v)
		bestD := int64(1) << 62
		for _, s := range e.S {
			if d.Dist[s] < bestD {
				bestD = d.Dist[s]
			}
		}
		if e.DistS != bestD {
			t.Fatalf("node %d: DistS = %d, want %d", v, e.DistS, bestD)
		}
		// Censoring: no non-self list entry at or beyond DistS.
		for _, ent := range e.List {
			if ent.Dist > 0 && ent.Dist >= e.DistS {
				t.Fatalf("node %d: censored entry survived (%d >= %d)", v, ent.Dist, e.DistS)
			}
		}
	}
}

func TestBetaSharedAndInRange(t *testing.T) {
	g := graph.Path(7, graph.UnitWeights)
	embs := buildAll(t, g, Options{}, 21)
	beta := embs[0].Beta
	one, two := rational.FromInt(1), rational.FromInt(2)
	if beta.Less(one) || two.Less(beta) {
		t.Fatalf("beta = %s out of [1,2]", beta)
	}
	for v := 1; v < g.N(); v++ {
		if embs[v].Beta.Cmp(beta) != 0 {
			t.Fatalf("node %d has different beta", v)
		}
	}
}
