package steiner

import (
	"container/heap"

	"steinerforest/internal/graph"
)

// PathSwap improves a feasible solution by edge/path swaps (the
// local-search move of Groß et al.'s Steiner forest algorithm): for each
// selected edge e, find the cheapest alternative route between its
// endpoints where already-selected edges ride free; if that route's
// fresh edges cost less than w(e), swap e out for them. The input is
// pruned first, each accepted swap is re-pruned (the detour may close a
// cycle elsewhere in the forest), and sweeps repeat until a pass makes
// no move or maxPasses is hit. Every accepted move strictly decreases
// total weight, so the result is feasible, a forest, never heavier than
// the input, and — given the deterministic tie-breaks below — a pure
// function of (ins, s).
func PathSwap(ins *Instance, s *Solution, maxPasses int) *Solution {
	g := ins.G
	cur := Prune(ins, s)
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for e := 0; e < g.M(); e++ {
			if !cur.Selected[e] {
				continue
			}
			we := g.Edge(e).Weight
			if we <= 1 {
				// A detour must use at least one fresh edge of weight >= 1:
				// after pruning there is no all-selected alternative route
				// (that would be a cycle), so weight-1 edges cannot improve.
				continue
			}
			cost, detour := cheapestDetour(g, cur, e)
			if detour == nil || cost >= we {
				continue
			}
			cur.Selected[e] = false
			for _, d := range detour {
				cur.Selected[d] = true
			}
			cur = Prune(ins, cur)
			improved = true
		}
		if !improved {
			break
		}
	}
	return cur
}

// cheapestDetour runs Dijkstra between the endpoints of edge skip with
// selected edges (other than skip itself) at cost 0 and everything else
// at its weight, returning the total fresh-edge cost and the fresh edge
// indices of the best route. Ties break on (distance, node id), and
// relaxation is strictly improving, so the route is deterministic.
func cheapestDetour(g *graph.Graph, s *Solution, skip int) (int64, []int) {
	src, dst := g.Edge(skip).U, g.Edge(skip).V
	const unreached = int64(-1)
	dist := make([]int64, g.N())
	prev := make([]int32, g.N()) // edge index into the node, -1 at src
	for i := range dist {
		dist[i] = unreached
		prev[i] = -1
	}
	dist[src] = 0
	h := &detourHeap{{node: src}}
	for h.Len() > 0 {
		it := heap.Pop(h).(detourItem)
		if it.dist > dist[it.node] {
			continue // stale heap entry; the node was relaxed again
		}
		if it.node == dst {
			break
		}
		for _, half := range g.Neighbors(it.node) {
			if int(half.Index) == skip {
				continue
			}
			w := half.Weight
			if s.Selected[half.Index] {
				w = 0
			}
			nd := it.dist + w
			to := int(half.To)
			if dist[to] == unreached || nd < dist[to] {
				dist[to] = nd
				prev[to] = half.Index
				heap.Push(h, detourItem{node: to, dist: nd})
			}
		}
	}
	if dist[dst] == unreached {
		return 0, nil
	}
	var fresh []int
	for v := dst; v != src; {
		e := int(prev[v])
		if !s.Selected[e] {
			fresh = append(fresh, e)
		}
		v = g.Edge(e).Other(v)
	}
	return dist[dst], fresh
}

type detourItem struct {
	node int
	dist int64
}

type detourHeap []detourItem

func (h detourHeap) Len() int { return len(h) }
func (h detourHeap) Less(i, j int) bool {
	if h[i].dist != h[j].dist {
		return h[i].dist < h[j].dist
	}
	return h[i].node < h[j].node
}
func (h detourHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *detourHeap) Push(x any)   { *h = append(*h, x.(detourItem)) }
func (h *detourHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
