package graph

// Infinity is the sentinel distance for unreachable nodes.
const Infinity = int64(1) << 62

// BFSResult holds single-source unweighted shortest-path data.
type BFSResult struct {
	Source int
	Dist   []int // hop distance, -1 if unreachable
	Parent []int // BFS-tree parent, -1 at source and unreachable nodes
}

// BFS computes unweighted shortest paths from src.
func (g *Graph) BFS(src int) *BFSResult {
	res := &BFSResult{
		Source: src,
		Dist:   make([]int, g.n),
		Parent: make([]int, g.n),
	}
	for i := range res.Dist {
		res.Dist[i] = -1
		res.Parent[i] = -1
	}
	res.Dist[src] = 0
	queue := make([]int, 0, g.n)
	queue = append(queue, src)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, h := range g.Neighbors(u) {
			if v := int(h.To); res.Dist[v] == -1 {
				res.Dist[v] = res.Dist[u] + 1
				res.Parent[v] = u
				queue = append(queue, v)
			}
		}
	}
	return res
}

// Eccentricity returns the maximum finite hop distance from src.
func (r *BFSResult) Eccentricity() int {
	ecc := 0
	for _, d := range r.Dist {
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// Diameter returns the exact unweighted diameter D of g (the maximum over
// connected pairs). It runs BFS from every node, which is fine at the
// simulator's scales. Disconnected graphs report the largest component-wise
// eccentricity.
func (g *Graph) Diameter() int {
	d := 0
	for v := 0; v < g.n; v++ {
		if e := g.BFS(v).Eccentricity(); e > d {
			d = e
		}
	}
	return d
}

// SSSPResult holds single-source weighted shortest-path data. Among
// minimum-weight paths, the one with the fewest hops is chosen (further ties
// broken by smaller predecessor ID), matching the paper's deterministic
// tie-breaking convention as closely as local information allows.
type SSSPResult struct {
	Source int
	Dist   []int64 // weighted distance, Infinity if unreachable
	Hops   []int   // hop count of the selected shortest path
	Parent []int   // predecessor on the selected path, -1 at source/unreachable
}

type pqItem struct {
	node int
	dist int64
	hops int
}

// less is the queue order (dist, hops, node). It is total, so the pop
// sequence, and with it every SSSPResult, does not depend on the heap's
// internal layout.
func (a pqItem) less(b pqItem) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	if a.hops != b.hops {
		return a.hops < b.hops
	}
	return a.node < b.node
}

// pq is a binary min-heap of pqItems, typed so that no item is boxed.
type pq []pqItem

func (p *pq) push(it pqItem) {
	h := append(*p, it)
	for i := len(h) - 1; i > 0; {
		up := (i - 1) / 2
		if !h[i].less(h[up]) {
			break
		}
		h[i], h[up] = h[up], h[i]
		i = up
	}
	*p = h
}

func (p *pq) pop() pqItem {
	h := *p
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= last {
			break
		}
		if r := c + 1; r < last && h[r].less(h[c]) {
			c = r
		}
		if !h[c].less(h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	*p = h
	return top
}

// Dijkstra computes weighted shortest paths from src with (weight, hops,
// predecessor) tie-breaking.
func (g *Graph) Dijkstra(src int) *SSSPResult {
	res := &SSSPResult{
		Source: src,
		Dist:   make([]int64, g.n),
		Hops:   make([]int, g.n),
		Parent: make([]int, g.n),
	}
	for i := range res.Dist {
		res.Dist[i] = Infinity
		res.Hops[i] = 1 << 30
		res.Parent[i] = -1
	}
	res.Dist[src] = 0
	res.Hops[src] = 0
	q := pq{{node: src}}
	done := make([]bool, g.n)
	for len(q) > 0 {
		it := q.pop()
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		for _, h := range g.Neighbors(u) {
			nd, nh := it.dist+h.Weight, it.hops+1
			v := int(h.To)
			better := nd < res.Dist[v] ||
				(nd == res.Dist[v] && nh < res.Hops[v]) ||
				(nd == res.Dist[v] && nh == res.Hops[v] && res.Parent[v] > u)
			if better {
				res.Dist[v] = nd
				res.Hops[v] = nh
				res.Parent[v] = u
				q.push(pqItem{node: v, dist: nd, hops: nh})
			}
		}
	}
	for i := range res.Dist {
		if res.Dist[i] == Infinity {
			res.Hops[i] = -1
		}
	}
	return res
}

// Path reconstructs the selected shortest path from the source to v as a
// node sequence, or nil if v is unreachable.
func (r *SSSPResult) Path(v int) []int {
	if r.Dist[v] == Infinity {
		return nil
	}
	var rev []int
	for x := v; x != -1; x = r.Parent[x] {
		rev = append(rev, x)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// WeightedDiameter returns WD = max over connected pairs of wd(u, v).
func (g *Graph) WeightedDiameter() int64 {
	var wd int64
	for v := 0; v < g.n; v++ {
		for _, d := range g.Dijkstra(v).Dist {
			if d != Infinity && d > wd {
				wd = d
			}
		}
	}
	return wd
}

// ShortestPathDiameter returns the paper's s: the maximum over connected
// pairs (u, v) of the minimum hop count among all minimum-weight u-v paths.
// It is the natural round bound for distributed Bellman-Ford.
func (g *Graph) ShortestPathDiameter() int {
	s := 0
	for v := 0; v < g.n; v++ {
		res := g.minHopSSSP(v)
		for u := 0; u < g.n; u++ {
			if res.Dist[u] != Infinity && res.Hops[u] > s {
				s = res.Hops[u]
			}
		}
	}
	return s
}

// minHopSSSP is Dijkstra minimizing (dist, hops); unlike Dijkstra it has no
// predecessor tie-break, so Hops is exactly the minimum hop count over all
// shortest paths.
func (g *Graph) minHopSSSP(src int) *SSSPResult {
	res := &SSSPResult{
		Source: src,
		Dist:   make([]int64, g.n),
		Hops:   make([]int, g.n),
		Parent: make([]int, g.n),
	}
	for i := range res.Dist {
		res.Dist[i] = Infinity
		res.Hops[i] = 1 << 30
		res.Parent[i] = -1
	}
	res.Dist[src] = 0
	res.Hops[src] = 0
	q := pq{{node: src}}
	for len(q) > 0 {
		it := q.pop()
		u := it.node
		if it.dist > res.Dist[u] || (it.dist == res.Dist[u] && it.hops > res.Hops[u]) {
			continue
		}
		for _, h := range g.Neighbors(u) {
			nd, nh := it.dist+h.Weight, it.hops+1
			v := int(h.To)
			if nd < res.Dist[v] || (nd == res.Dist[v] && nh < res.Hops[v]) {
				res.Dist[v] = nd
				res.Hops[v] = nh
				res.Parent[v] = u
				q.push(pqItem{node: v, dist: nd, hops: nh})
			}
		}
	}
	return res
}

// Components returns the connected components as a label per node plus the
// component count.
func (g *Graph) Components() ([]int, int) {
	label := make([]int, g.n)
	for i := range label {
		label[i] = -1
	}
	count := 0
	for v := 0; v < g.n; v++ {
		if label[v] != -1 {
			continue
		}
		stack := []int{v}
		label[v] = count
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, h := range g.Neighbors(u) {
				if w := int(h.To); label[w] == -1 {
					label[w] = count
					stack = append(stack, w)
				}
			}
		}
		count++
	}
	return label, count
}

// Connected reports whether g is connected (vacuously true for n <= 1).
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	_, c := g.Components()
	return c == 1
}
