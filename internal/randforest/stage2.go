package randforest

import (
	"sort"

	"steinerforest/internal/congest"
	"steinerforest/internal/dist"
	"steinerforest/internal/graph"
	"steinerforest/internal/moat"
	"steinerforest/internal/rational"
	"steinerforest/internal/steiner"
)

// This file implements the second stage of the truncated (s > √n) variant:
// the F-reduced instance of Definition 5.1 and its solution.
//
// The paper solves the reduced instance with the spanner-based algorithm of
// [17], which has no public implementation. We substitute a
// Voronoi/Mehlhorn-style metric sketch with the same O~(√n + k + D) round
// shape (see the README's "Scope notes" under The Spec / registry
// pipeline): the graph is partitioned into Voronoi
// cells around the surviving super-terminals, the lightest boundary edges
// forming a spanning forest of the cell graph are collected with a
// Kruskal-filtered upcast and broadcast (≤ √n items), every node then runs
// the centralized moat-growing 2-approximation on the identical cell metric,
// and the chosen cell paths are marked back into G along the Voronoi trees.

// The (cell, label) pairs collected here (wireCellLabel) link a
// super-terminal cell with an input label it hosts; the bipartite forest
// of accepted items yields the helper-graph components (Λ, E_Λ) of the
// paper, i.e. the reduced labels λ̂ (Lemma G.12). Boundary proposals
// (wireBoundary) carry the lightest known connection between two Voronoi
// cells — dist(cellU side) + edge + dist(cellV side) — with the inducing
// graph edge packed into D.

// boundaryItem is the decoded form of a wireBoundary proposal: U/V are
// the two cell ids, EU/EV the inducing edge. The codec and comparator are
// dist's shared EdgeItem ones (detforest's candidate merges use the same
// shape).
type boundaryItem = dist.EdgeItem

// boundaryWireBits accounts a boundary item exactly as the boxed form plus
// its pipeline envelope did: weight + four 24-bit ids + 2 envelope bits.
func boundaryWireBits(w congest.Wire) int {
	return dist.EdgeItemBits(w) + 2
}

// vorWireBits accounts the Voronoi view exchange as vorMsg did: a 24-bit
// cell id plus the dyadic distance.
func vorWireBits(w congest.Wire) int {
	return 24 + dist.EncodedQBits(w.B, w.C)
}

// stageTwo is a node's second-stage state, kept across the stage's
// primitives.
type stageTwo struct {
	ns      *nodeState
	cell    int // the node's super-terminal fragment, -1 if none
	comp    *graph.UnionFind
	cellSet map[int]bool // the cells hosting reduced terminals
	cells   []int        // cellSet, ascending
	vor     dist.BFResult

	// The token walk's state (walk).
	tokens  int
	seen    bool
	sendBuf [1]congest.Send
}

// startStageTwo starts (a), the super-terminal fragments T_v:
// Bellman-Ford from S restricted to the selected edge set F.
func (ns *nodeState) startStageTwo() (congest.Request, bool) {
	ns.two = &stageTwo{ns: ns}
	ns.stage = stageFrag
	return ns.drive(dist.StartBellmanFord(ns.h, &ns.tree, dist.BFConfig{
		IsSource: ns.inSSet(ns.h.ID()),
		SourceID: ns.h.ID(),
		UsePort:  func(p int) bool { return ns.inF[p] },
	}))
}

// collectPairs reads the fragments and starts (b): the reduced labels λ̂
// via the bipartite (cell, label) forest.
func (st *stageTwo) collectPairs() (congest.Request, bool) {
	ns := st.ns
	h := ns.h
	st.cell = -1
	switch frag := ns.tree.BF(); {
	case ns.inSSet(h.ID()):
		st.cell = h.ID()
	case frag.Reached:
		st.cell = frag.Source
	}
	var local []congest.Wire
	if ns.label != steiner.NoLabel && st.cell >= 0 {
		// ns.labels is ascending: the label's index is its rank there.
		idx := sort.SearchInts(ns.labels, ns.label)
		local = append(local, congest.Wire{Kind: wireCellLabel, A: uint32(st.cell), B: uint32(idx)})
	}
	n, nl := h.N(), len(ns.labels)
	newFilter := func() dist.Filter {
		uf := graph.NewUnionFind(n + nl)
		return func(x congest.Wire) bool {
			return uf.Union(int(x.A), n+int(x.B))
		}
	}
	ns.stage = stagePairs
	return ns.drive(dist.StartUpcastBroadcast(h, &ns.tree, local, pairCmp, newFilter, nil))
}

// voronoi reads the (cell, label) forest and starts (c): the Voronoi
// decomposition of G around the reduced terminals. With fewer than two
// cells there is nothing left to connect, and the node is done.
func (st *stageTwo) voronoi() (congest.Request, bool) {
	ns := st.ns
	n := ns.h.N()
	st.comp = graph.NewUnionFind(n + len(ns.labels))
	st.cellSet = map[int]bool{}
	for _, x := range ns.tree.Collected() {
		st.comp.Union(int(x.A), n+int(x.B))
		st.cellSet[int(x.A)] = true
	}
	st.cells = make([]int, 0, len(st.cellSet))
	for c := range st.cellSet {
		st.cells = append(st.cells, c)
	}
	sort.Ints(st.cells)
	if len(st.cells) < 2 {
		return congest.Request{}, false
	}
	ns.stage = stageVoronoi
	return ns.drive(dist.StartBellmanFord(ns.h, &ns.tree, dist.BFConfig{
		IsSource: st.cell >= 0 && st.cellSet[st.cell],
		SourceID: st.cell,
	}))
}

// exchange starts the boundary discovery: one exchange of (cell, dist).
func (st *stageTwo) exchange() (congest.Request, bool) {
	ns := st.ns
	st.vor = ns.tree.BF()
	if !st.vor.Reached {
		panic("randforest: Voronoi decomposition did not reach every node")
	}
	deg := ns.h.Degree()
	out := make([]congest.Send, 0, deg)
	vb, vc := dist.EncodeQ(st.vor.Dist)
	for p := 0; p < deg; p++ {
		out = append(out, congest.Send{Port: p, Wire: congest.Wire{Kind: wireVor, A: uint32(st.vor.Source), B: vb, C: vc}})
	}
	ns.stage = stageBoundary
	return congest.Exchange(out), true
}

// collectBoundary proposes the induced inter-cell connections and starts
// their Kruskal-filtered collection.
func (st *stageTwo) collectBoundary(in []congest.Recv) (congest.Request, bool) {
	ns := st.ns
	h, vor := ns.h, st.vor
	var props []congest.Wire
	for _, rc := range in {
		mcell := int(rc.Wire.A)
		if mcell == vor.Source {
			continue
		}
		md := dist.DecodeQ(rc.Wire.B, rc.Wire.C)
		w := vor.Dist.Add(rational.FromInt(h.Weight(rc.Port))).Add(md)
		cu, cv := vor.Source, mcell
		if cu > cv {
			cu, cv = cv, cu
		}
		eu, ev := h.ID(), h.Neighbor(rc.Port)
		if eu > ev {
			eu, ev = ev, eu
		}
		props = append(props, boundaryItem{Weight: w, U: cu, V: cv, EU: eu, EV: ev}.Wire(wireBoundary))
	}
	n := h.N()
	bFilter := func() dist.Filter {
		uf := graph.NewUnionFind(n)
		return func(x congest.Wire) bool {
			return uf.Union(int(x.A), int(x.B>>8))
		}
	}
	ns.stage = stageProps
	return ns.drive(dist.StartUpcastBroadcast(h, &ns.tree, props, dist.EdgeItemCmp, bFilter, nil))
}

// solve is (d), the identical local solve of the reduced instance on the
// cell metric, and starts (e): marking the chosen connections, whose
// inducing edges each endpoint marks itself, by token walks up the
// Voronoi trees from both endpoints.
func (st *stageTwo) solve() (congest.Request, bool) {
	ns := st.ns
	h := ns.h
	cellIdx := make(map[int]int, len(st.cells))
	for i, c := range st.cells {
		cellIdx[c] = i
	}
	boundary := ns.tree.Collected()
	cg := graph.New(len(st.cells))
	type viaEdge struct{ eu, ev int }
	via := make(map[int]viaEdge, len(boundary))
	for _, x := range boundary {
		it := dist.EdgeItemFromWire(x)
		iu, okU := cellIdx[it.U]
		iv, okV := cellIdx[it.V]
		if !okU || !okV {
			continue // boundary between cells hosting no terminals
		}
		w := it.Weight.Ceil()
		if w < 1 {
			w = 1
		}
		idx := cg.AddEdge(iu, iv, w)
		via[idx] = viaEdge{eu: it.EU, ev: it.EV}
	}
	rins := steiner.NewInstance(cg)
	for i, c := range st.cells {
		rins.Label[i] = st.comp.Find(c)
	}
	solved, err := moat.SolveAKR(rins)
	if err != nil {
		panic("randforest: reduced instance unsolvable: " + err.Error())
	}

	for _, ei := range solved.Pruned.Edges() {
		ve := via[ei]
		if h.ID() == ve.eu || h.ID() == ve.ev {
			other := ve.eu
			if h.ID() == ve.eu {
				other = ve.ev
			}
			if p, ok := h.PortOf(other); ok {
				ns.out.mark(h.EdgeIndex(p))
			}
			st.tokens = 1
		}
	}
	st.seen = st.tokens > 0
	ns.stage = stageMark
	return ns.drive(dist.StartQuiet(h, &ns.tree, st.walk))
}

// walk is the token walks' RunQuiet step: a node holding a token marks
// its Voronoi parent edge and passes the token up, once.
func (st *stageTwo) walk(_ int, in []congest.Recv) ([]congest.Send, bool) {
	got := false
	for _, rc := range in {
		if rc.Wire.Kind == wireToken {
			got = true
		}
	}
	if got && !st.seen {
		st.seen = true
		st.tokens = 1
	}
	if pp := st.vor.ParentPort; st.tokens > 0 && pp >= 0 {
		st.tokens = 0
		st.ns.out.mark(st.ns.h.EdgeIndex(pp))
		st.sendBuf[0] = congest.Send{Port: pp, Wire: congest.Wire{Kind: wireToken}}
		return st.sendBuf[:], true
	}
	st.tokens = 0
	return nil, got
}

// finish marks F: the walks end at fragment nodes, and the fragments
// themselves are glued by F edges, which every member knows locally.
func (st *stageTwo) finish() {
	ns := st.ns
	for p, in := range ns.inF {
		if in {
			ns.out.mark(ns.h.EdgeIndex(p))
		}
	}
}
