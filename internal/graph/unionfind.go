package graph

// UnionFind is a disjoint-set forest with union by rank and path
// compression. It is used for Kruskal's algorithm, cycle filtering during
// candidate-merge collection (Lemma 4.14), and moat bookkeeping.
type UnionFind struct {
	parent []int
	rank   []int8
	sets   int
}

// NewUnionFind returns a union-find structure over n singleton sets.
func NewUnionFind(n int) *UnionFind {
	uf := &UnionFind{
		parent: make([]int, n),
		rank:   make([]int8, n),
		sets:   n,
	}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

// Find returns the canonical representative of x's set.
func (uf *UnionFind) Find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

// Union merges the sets of x and y, returning false if they were already in
// the same set.
func (uf *UnionFind) Union(x, y int) bool {
	rx, ry := uf.Find(x), uf.Find(y)
	if rx == ry {
		return false
	}
	if uf.rank[rx] < uf.rank[ry] {
		rx, ry = ry, rx
	}
	uf.parent[ry] = rx
	if uf.rank[rx] == uf.rank[ry] {
		uf.rank[rx]++
	}
	uf.sets--
	return true
}

// Connected reports whether x and y are in the same set.
func (uf *UnionFind) Connected(x, y int) bool { return uf.Find(x) == uf.Find(y) }

// Sets returns the current number of disjoint sets.
func (uf *UnionFind) Sets() int { return uf.sets }

// CopyFrom makes uf an independent copy of src, reusing uf's arrays when
// they are large enough.
func (uf *UnionFind) CopyFrom(src *UnionFind) {
	uf.parent = append(uf.parent[:0], src.parent...)
	uf.rank = append(uf.rank[:0], src.rank...)
	uf.sets = src.sets
}
