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
	"slices"
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

// StartBuild constructs the embedding at every node: β broadcast from the
// BFS root, L derived from a max-weight aggregate, optionally the
// high-rank set S, then the pipelined LE-list computation run to global
// quiescence. It draws the node's rank (and, at the root, β) and returns
// the first request and the driver of the construction, which runs the
// dist primitives' start functions in turn. emb is the node's embedding
// once the driver is done.
func StartBuild(h *congest.Host, t *dist.Tree, opts Options, emb *Embedding) (congest.Request, congest.Driver) {
	*emb = Embedding{
		Rank:    Rank{Value: h.Rand().Int63(), Node: h.ID()},
		NextHop: make(map[int]int),
	}
	// β = 1 + num/1024 with num drawn at the root and broadcast.
	var items []congest.Wire
	if t.IsRoot() {
		items = []congest.Wire{{Kind: wireBeta, C: h.Rand().Int63n(1024)}}
	}
	b := &construction{h: h, t: t, emb: emb, truncate: opts.Truncate, stage: stageBeta}
	var first congest.Request
	first, b.sub = dist.StartBroadcastList(h, t, items)
	return first, b
}

// construction stages: the primitive the node's current request belongs to.
const (
	stageBeta  = uint8(iota) // the β broadcast
	stageMax                 // the max-weight aggregate
	stageSRank               // the S election (truncated only)
	stageSBF                 // Bellman-Ford from S (truncated only)
	stageLE                  // the LE-list relaxation
)

// construction is StartBuild's per-node driver: its primitives in turn,
// each driven to completion as sub before Next starts the next stage's.
type construction struct {
	h        *congest.Host
	t        *dist.Tree
	emb      *Embedding
	truncate bool
	inS      bool // a member of S (truncated only)
	stage    uint8
	sub      congest.Driver
	le       *leLists
}

// drive makes d the running primitive, starting with first.
func (b *construction) drive(first congest.Request, d congest.Driver) (congest.Request, bool) {
	b.sub = d
	return first, true
}

// Next completes the request the node was waiting on — forwarding it to
// the running primitive until that is done — and returns the next one.
func (b *construction) Next(in []congest.Recv) (congest.Request, bool) {
	if req, more := b.sub.Next(in); more {
		return req, true
	}
	h, t, emb := b.h, b.t, b.emb
	switch b.stage {
	case stageBeta:
		emb.Beta = rational.FromInt(1).Add(rational.New(t.Broadcasted()[0].C, 1024))
		// L = ceil(log2(n * maxW)) bounds log2 of the weighted diameter.
		var maxW int64 = 1
		for p := 0; p < h.Degree(); p++ {
			if w := h.Weight(p); w > maxW {
				maxW = w
			}
		}
		b.stage = stageMax
		return b.drive(dist.StartMax(h, t, maxW))
	case stageMax:
		emb.L = 1
		for bound := int64(h.N()) * t.Maximum(); int64(1)<<uint(emb.L) < bound; emb.L++ {
		}
		if b.truncate {
			b.stage = stageSRank
			return b.drive(b.electS())
		}
	case stageSRank:
		b.stage = stageSBF
		return b.drive(b.nearestS())
	case stageSBF:
		b.installS()
	case stageLE:
		b.le.finish()
		b.sub, b.le = nil, nil
		return congest.Request{}, false
	}
	b.stage = stageLE
	return b.drive(b.startLELists())
}

// electS starts the election of the ceil(sqrt(n)) highest-rank nodes as
// S: a descending upcast cut after the target count.
func (b *construction) electS() (congest.Request, congest.Driver) {
	h := b.h
	target := 1
	for target*target < h.N() {
		target++
	}
	count := 0
	return dist.StartUpcastBroadcast(h, b.t,
		[]congest.Wire{{Kind: wireSRank, A: uint32(h.ID()), C: b.emb.Rank.Value}}, sRankCmp, nil,
		func(congest.Wire) bool { count++; return count >= target })
}

// nearestS records S and starts the weighted multi-source Bellman-Ford
// from it that finds each node's nearest S member.
func (b *construction) nearestS() (congest.Request, congest.Driver) {
	h, emb := b.h, b.emb
	for _, it := range b.t.Collected() {
		node := int(it.A)
		emb.S = append(emb.S, node)
		if node == h.ID() {
			b.inS = true
		}
	}
	sort.Ints(emb.S)
	return dist.StartBellmanFord(h, b.t, dist.BFConfig{IsSource: b.inS, SourceID: h.ID()})
}

// installS records the node's nearest S member.
func (b *construction) installS() {
	emb, bf := b.emb, b.t.BF()
	emb.Truncated = true
	emb.NearS = bf.Source
	emb.DistS = bf.Dist.Int()
	emb.PortS = bf.ParentPort
	if b.inS {
		emb.DistS = 0
		emb.NearS = b.h.ID()
		emb.PortS = -1
	}
}

// startLELists starts the pipelined LE-list relaxation, run to
// quiescence: each accepted or improved entry is queued and re-announced
// to all neighbors, one entry per edge per round.
func (b *construction) startLELists() (congest.Request, congest.Driver) {
	h, emb := b.h, b.emb
	b.le = &leLists{
		h:     h,
		emb:   emb,
		list:  []Entry{{Node: h.ID(), Rank: emb.Rank, Dist: 0, NextHop: -1}},
		queue: []int{h.ID()},
		out:   make([]congest.Send, 0, h.Degree()),
	}
	emb.NextHop[h.ID()] = -1
	return dist.StartQuiet(h, b.t, b.le.step)
}

// finish makes the relaxed list the embedding's, by ascending distance.
// No two entries share a distance (the nearer or equal one of higher
// rank dominates the other), so the order is unique.
func (le *leLists) finish() {
	sort.Slice(le.list, func(i, j int) bool { return le.list[i].Dist < le.list[j].Dist })
	le.emb.List = le.list
}

// leLists is a node's LE-list relaxation state, startLELists' StartQuiet
// step. A list holds O(log n) entries w.h.p., so it is a plain slice,
// unordered until finish, searched linearly.
type leLists struct {
	h     *congest.Host
	emb   *Embedding
	list  []Entry
	queue []int // entries to re-announce, one per round, from head on
	head  int
	out   []congest.Send // reused announcement buffer
}

func (le *leLists) censored(d int64) bool {
	return le.emb.Truncated && d >= le.emb.DistS && d > 0
}

// find returns the index of node's entry, or -1.
func (le *leLists) find(node int) int {
	for i := range le.list {
		if le.list[i].Node == node {
			return i
		}
	}
	return -1
}

// queued reports whether node waits in the announcement queue.
func (le *leLists) queued(node int) bool {
	return slices.Contains(le.queue[le.head:], node)
}

// dominated reports whether candidate (rank, dist) is dominated by the
// current list: some entry at distance <= dist with rank >= rank.
func (le *leLists) dominated(rank Rank, d int64) bool {
	for _, ent := range le.list {
		if ent.Dist <= d && rank.Less(ent.Rank) {
			return true
		}
	}
	return false
}

func (le *leLists) step(_ int, in []congest.Recv) ([]congest.Send, bool) {
	h := le.h
	for _, rc := range in {
		if rc.Wire.Kind != wireLE {
			continue
		}
		node := int(rc.Wire.A)
		cand := Entry{
			Node:    node,
			Rank:    Rank{Value: rc.Wire.C, Node: node},
			Dist:    rc.Wire.D + h.Weight(rc.Port),
			NextHop: rc.Port,
		}
		if le.censored(cand.Dist) {
			continue
		}
		cur := le.find(node)
		if cur >= 0 && le.list[cur].Dist <= cand.Dist {
			continue
		}
		if le.dominated(cand.Rank, cand.Dist) {
			continue
		}
		// Accept: insert/improve, prune entries it dominates.
		if cur >= 0 {
			le.list[cur] = cand
		} else {
			le.list = append(le.list, cand)
		}
		le.emb.NextHop[node] = cand.NextHop
		le.list = slices.DeleteFunc(le.list, func(ent Entry) bool {
			return ent.Node != node && cand.Dist <= ent.Dist && ent.Rank.Less(cand.Rank)
		})
		if !le.queued(node) {
			le.queue = append(le.queue, node)
		}
	}
	if le.head == len(le.queue) {
		le.queue, le.head = le.queue[:0], 0
		return nil, false
	}
	id := le.queue[le.head]
	le.head++
	cur := le.find(id)
	if cur < 0 {
		return nil, true // pruned while queued; stay active to flush queue
	}
	ent := le.list[cur]
	le.out = le.out[:0]
	for p := 0; p < h.Degree(); p++ {
		le.out = append(le.out, congest.Send{Port: p, Wire: congest.Wire{Kind: wireLE, A: uint32(id), C: ent.Rank.Value, D: ent.Dist}})
	}
	return le.out, true
}
