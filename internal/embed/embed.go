// Package embed implements the probabilistic tree embedding of Khan et al.
// [14] that the paper's randomized algorithm (Section 5) builds on: random
// node ranks, a global growth factor β ∈ [1, 2], and per-node least-element
// (LE) lists from which each node derives its virtual-tree ancestors
// v_0, ..., v_L and next-hop routing pointers along (approximately)
// least-weight paths.
//
// An LE-list entry (u, d) means u has the highest rank among all nodes
// within distance d of the owner; the i-th ancestor of v is the
// highest-rank node within distance β·2^i, i.e. the deepest list entry with
// distance at most β·2^i. A key structural fact (Lemma G.1 and [14]) is
// that each node appears on few lists and each node's list has O(log n)
// entries w.h.p., which is what makes the pipelined distributed
// construction below run in O~(s) rounds (or O~(√n) when truncated at the
// high-rank set S, Lemma G.2).
package embed

import (
	"sort"

	"steinerforest/internal/congest"
	"steinerforest/internal/dist"
	"steinerforest/internal/rational"
)

// Rank orders nodes; random values with node-id tie-breaking make it a
// uniformly random permutation.
type Rank struct {
	Value int64
	Node  int
}

// Less orders ranks ascending (higher rank = "larger" under this order).
func (r Rank) Less(o Rank) bool {
	if r.Value != o.Value {
		return r.Value < o.Value
	}
	return r.Node < o.Node
}

// Entry is one LE-list element: node u (with its rank) is the
// highest-ranked node within distance Dist of the list owner; NextHop is
// the owner's port toward u on a least-weight path.
type Entry struct {
	Node    int
	Rank    Rank
	Dist    int64
	NextHop int // port; -1 at u itself
}

// Embedding is a node's local view of the virtual tree.
type Embedding struct {
	Beta rational.Q // global β ∈ [1,2], dyadic
	L    int        // number of levels: ancestors v_0..v_L
	Rank Rank       // this node's rank

	// List is the final LE list sorted by ascending distance (and hence
	// ascending rank).
	List []Entry

	// NextHop maps a target node that ever appeared in this node's list to
	// the port toward it; routing toward any ancestor of any node whose
	// shortest path passes here stays well-defined even after pruning.
	NextHop map[int]int

	// DistS and NearS describe the nearest node of the high-rank set S
	// (only when truncation is enabled): every list entry with
	// Dist >= DistS is censored per Lemma G.2.
	Truncated bool
	DistS     int64
	NearS     int
	PortS     int // port toward NearS, -1 at members of S

	// S is the sorted high-rank set (global knowledge), empty when not
	// truncated.
	S []int
}

// Ancestor returns the level-i ancestor of this node: the deepest list
// entry within distance β·2^i. With truncation, levels at or beyond the
// first S-intersecting ball return (NearS, true) per the paper's modified
// step 1. The boolean reports whether the ancestor is the S-cutoff.
func (e *Embedding) Ancestor(i int) (Entry, bool) {
	radius := e.Beta.MulInt(1 << uint(i))
	if e.Truncated && !radius.Less(rational.FromInt(e.DistS)) {
		return Entry{Node: e.NearS, Dist: e.DistS, NextHop: e.PortS}, true
	}
	best := e.List[0]
	for _, ent := range e.List[1:] {
		if rational.FromInt(ent.Dist).LessEq(radius) {
			best = ent
		} else {
			break
		}
	}
	return best, false
}

// Wire kinds of this package (range 32-39 of the congest.Wire partition).
// Widths match the former boxed forms (the collected/broadcast kinds
// include the 2 envelope header bits), so the migration leaves Stats
// bit-identical.
const (
	// wireBeta broadcasts the shared growth factor numerator
	// (β = 1 + C/1024).
	wireBeta uint16 = 32
	// wireSRank collects the highest-rank nodes, descending: C = rank
	// value, A = node.
	wireSRank uint16 = 33
	// wireLE propagates one LE-list entry through the relaxation: A = the
	// entry's node, C = its rank value, D = its distance from the sender.
	wireLE uint16 = 34
)

func init() {
	congest.RegisterWireKind(wireBeta, 16+2)
	congest.RegisterWireKind(wireSRank, 64+24+2)
	congest.RegisterWireKind(wireLE, 24+64+64)
}

// sRankCmp orders rank announcements descending (highest rank first), the
// order the S election truncates.
func sRankCmp(a, b congest.Wire) int {
	if a.C != b.C {
		if a.C > b.C {
			return -1
		}
		return 1
	}
	if a.A != b.A {
		if a.A > b.A {
			return -1
		}
		return 1
	}
	return 0
}

// Options configures the construction.
type Options struct {
	// Truncate enables the Lemma G.2 construction: lists are cut at the
	// nearest of the |S| = ceil(sqrt(n)) highest-rank nodes.
	Truncate bool
}

// Build constructs the embedding at every node: β broadcast from the BFS
// root, L derived from a max-weight aggregate, optionally the high-rank set
// S, then the pipelined LE-list computation run to global quiescence.
func Build(h *congest.Host, t *dist.Tree, opts Options) *Embedding {
	emb := &Embedding{
		Rank:    Rank{Value: h.Rand().Int63(), Node: h.ID()},
		NextHop: make(map[int]int),
	}
	// β = 1 + num/1024 with num drawn at the root and broadcast.
	var items []congest.Wire
	if t.IsRoot() {
		items = []congest.Wire{{Kind: wireBeta, C: h.Rand().Int63n(1024)}}
	}
	got := dist.BroadcastList(h, t, items)
	emb.Beta = rational.FromInt(1).Add(rational.New(got[0].C, 1024))
	// L = ceil(log2(n * maxW)) bounds log2 of the weighted diameter.
	var maxW int64 = 1
	for p := 0; p < h.Degree(); p++ {
		if w := h.Weight(p); w > maxW {
			maxW = w
		}
	}
	maxW = dist.Max(h, t, maxW)
	emb.L = 1
	for bound := int64(h.N()) * maxW; int64(1)<<uint(emb.L) < bound; emb.L++ {
	}

	if opts.Truncate {
		buildS(h, t, emb)
	}

	runLELists(h, t, emb)
	return emb
}

// buildS elects the ceil(sqrt(n)) highest-rank nodes as S and computes each
// node's nearest S member via weighted multi-source Bellman-Ford.
func buildS(h *congest.Host, t *dist.Tree, emb *Embedding) {
	target := 1
	for target*target < h.N() {
		target++
	}
	count := 0
	sItems := dist.UpcastBroadcast(h, t,
		[]congest.Wire{{Kind: wireSRank, A: uint32(h.ID()), C: emb.Rank.Value}}, sRankCmp, nil,
		func(congest.Wire) bool { count++; return count >= target })
	inS := false
	for _, it := range sItems {
		node := int(it.A)
		emb.S = append(emb.S, node)
		if node == h.ID() {
			inS = true
		}
	}
	sort.Ints(emb.S)
	bf := dist.BellmanFord(h, t, dist.BFConfig{IsSource: inS, SourceID: h.ID()})
	emb.Truncated = true
	emb.NearS = bf.Source
	emb.DistS = bf.Dist.Int()
	emb.PortS = bf.ParentPort
	if inS {
		emb.DistS = 0
		emb.NearS = h.ID()
		emb.PortS = -1
	}
}

// runLELists runs the pipelined LE-list relaxation to quiescence: each
// accepted or improved entry is queued and re-announced to all neighbors,
// one entry per edge per round.
func runLELists(h *congest.Host, t *dist.Tree, emb *Embedding) {
	le := &leLists{
		h:      h,
		emb:    emb,
		list:   map[int]listEntry{h.ID(): {rank: emb.Rank, dist: 0, port: -1}},
		queue:  []int{h.ID()},
		queued: map[int]bool{h.ID(): true},
		out:    make([]congest.Send, 0, h.Degree()),
	}
	emb.NextHop[h.ID()] = -1
	dist.RunQuiet(h, t, le.step)

	emb.List = make([]Entry, 0, len(le.list))
	for id, ent := range le.list {
		emb.List = append(emb.List, Entry{Node: id, Rank: ent.rank, Dist: ent.dist, NextHop: ent.port})
	}
	sort.Slice(emb.List, func(i, j int) bool { return emb.List[i].Dist < emb.List[j].Dist })
}

type listEntry struct {
	rank Rank
	dist int64
	port int
}

// leLists is a node's LE-list relaxation state, runLELists' RunQuiet
// step.
type leLists struct {
	h      *congest.Host
	emb    *Embedding
	list   map[int]listEntry
	queue  []int // entries to re-announce, one per round
	queued map[int]bool
	out    []congest.Send // reused announcement buffer
}

func (le *leLists) censored(d int64) bool {
	return le.emb.Truncated && d >= le.emb.DistS && d > 0
}

// dominated reports whether candidate (rank, dist) is dominated by the
// current list: some entry at distance <= dist with rank >= rank.
func (le *leLists) dominated(rank Rank, d int64) bool {
	for _, ent := range le.list {
		if ent.dist <= d && rank.Less(ent.rank) {
			return true
		}
	}
	return false
}

func (le *leLists) step(_ int, in []congest.Recv) ([]congest.Send, bool) {
	h, list := le.h, le.list
	for _, rc := range in {
		if rc.Wire.Kind != wireLE {
			continue
		}
		node := int(rc.Wire.A)
		cand := listEntry{
			rank: Rank{Value: rc.Wire.C, Node: node},
			dist: rc.Wire.D + h.Weight(rc.Port),
			port: rc.Port,
		}
		if le.censored(cand.dist) {
			continue
		}
		cur, present := list[node]
		if present && cur.dist <= cand.dist {
			continue
		}
		if le.dominated(cand.rank, cand.dist) {
			continue
		}
		// Accept: insert/improve, prune entries it dominates.
		list[node] = cand
		le.emb.NextHop[node] = cand.port
		for id, ent := range list {
			if id != node && cand.dist <= ent.dist && ent.rank.Less(cand.rank) {
				delete(list, id)
			}
		}
		if !le.queued[node] {
			le.queued[node] = true
			le.queue = append(le.queue, node)
		}
	}
	if len(le.queue) == 0 {
		return nil, false
	}
	id := le.queue[0]
	le.queue = le.queue[1:]
	le.queued[id] = false
	ent, ok := list[id]
	if !ok {
		return nil, true // pruned while queued; stay active to flush queue
	}
	le.out = le.out[:0]
	for p := 0; p < h.Degree(); p++ {
		le.out = append(le.out, congest.Send{Port: p, Wire: congest.Wire{Kind: wireLE, A: uint32(id), C: ent.rank.Value, D: ent.dist}})
	}
	return le.out, true
}
