package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// refSSSP is the O(n²) definition both heap Dijkstras implement: settle
// the unsettled node with the least label (dist, hops, node), relax its
// edges by (dist, hops) and, with tieParent, by the smaller predecessor
// at equal (dist, hops).
func refSSSP(g *Graph, src int, tieParent bool) *SSSPResult {
	n := g.N()
	res := &SSSPResult{Source: src, Dist: make([]int64, n), Hops: make([]int, n), Parent: make([]int, n)}
	for i := range res.Dist {
		res.Dist[i], res.Hops[i], res.Parent[i] = Infinity, 1<<30, -1
	}
	res.Dist[src], res.Hops[src] = 0, 0
	done := make([]bool, n)
	for {
		u := -1
		for v := 0; v < n; v++ {
			if done[v] || res.Dist[v] == Infinity {
				continue
			}
			if u < 0 || res.Dist[v] < res.Dist[u] || res.Dist[v] == res.Dist[u] && res.Hops[v] < res.Hops[u] {
				u = v
			}
		}
		if u < 0 {
			break
		}
		done[u] = true
		for _, h := range g.Neighbors(u) {
			v, nd, nh := int(h.To), res.Dist[u]+h.Weight, res.Hops[u]+1
			if nd < res.Dist[v] || nd == res.Dist[v] && nh < res.Hops[v] ||
				tieParent && !done[v] && nd == res.Dist[v] && nh == res.Hops[v] && res.Parent[v] > u {
				res.Dist[v], res.Hops[v], res.Parent[v] = nd, nh, u
			}
		}
	}
	return res
}

// TestSSSPMatchesReference pins Dijkstra and minHopSSSP — Dist, Hops and
// Parent from every source — to the O(n²) reference on random weighted
// graphs, with weights drawn from a small range so that equal-distance
// and equal-hop ties are common.
func TestSSSPMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(40)
		g := GNP(n, 0.05+0.3*rng.Float64(), RandomWeights(rng, int64(1+rng.Intn(4))), rng)
		if trial%3 == 0 {
			g = RandomTree(n, RandomWeights(rng, 3), rng)
		}
		for src := 0; src < n; src++ {
			for _, c := range []struct {
				name string
				got  *SSSPResult
				want *SSSPResult
			}{
				{"Dijkstra", g.Dijkstra(src), refSSSP(g, src, true)},
				{"minHopSSSP", g.minHopSSSP(src), refSSSP(g, src, false)},
			} {
				want := c.want
				if c.name == "Dijkstra" {
					for v := range want.Dist {
						if want.Dist[v] == Infinity {
							want.Hops[v] = -1
						}
					}
				}
				if !slices.Equal(c.got.Dist, want.Dist) || !slices.Equal(c.got.Hops, want.Hops) || !slices.Equal(c.got.Parent, want.Parent) {
					t.Fatalf("trial %d n=%d src=%d %s:\n got %v %v %v\nwant %v %v %v", trial, n, src, c.name,
						c.got.Dist, c.got.Hops, c.got.Parent, want.Dist, want.Hops, want.Parent)
				}
			}
		}
	}
}
