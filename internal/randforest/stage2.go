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

func (ns *nodeState) stageTwo() {
	h := ns.h

	// (a) Super-terminal fragments T_v: Bellman-Ford from S restricted to
	// the selected edge set F.
	isS := ns.inSSet(h.ID())
	frag := dist.BellmanFord(h, ns.t, dist.BFConfig{
		IsSource: isS,
		SourceID: h.ID(),
		UsePort:  func(p int) bool { return ns.inF[p] },
	})
	cell := -1
	switch {
	case isS:
		cell = h.ID()
	case frag.Reached:
		cell = frag.Source
	}

	// (b) Reduced labels λ̂ via the bipartite (cell, label) forest.
	lblIdx := make(map[int]int, len(ns.labels))
	for i, l := range ns.labels {
		lblIdx[l] = i
	}
	var local []congest.Wire
	if ns.label != steiner.NoLabel && cell >= 0 {
		local = append(local, congest.Wire{Kind: wireCellLabel, A: uint32(cell), B: uint32(lblIdx[ns.label])})
	}
	n := h.N()
	newFilter := func() dist.Filter {
		uf := graph.NewUnionFind(n + len(ns.labels))
		return func(x congest.Wire) bool {
			return uf.Union(int(x.A), n+int(x.B))
		}
	}
	pairs := dist.UpcastBroadcast(h, ns.t, local, pairCmp, newFilter, nil)
	comp := graph.NewUnionFind(n + len(ns.labels))
	cellSet := map[int]bool{}
	for _, x := range pairs {
		comp.Union(int(x.A), n+int(x.B))
		cellSet[int(x.A)] = true
	}
	cells := make([]int, 0, len(cellSet))
	for c := range cellSet {
		cells = append(cells, c)
	}
	sort.Ints(cells)
	if len(cells) < 2 {
		return // nothing left to connect
	}

	// (c) Voronoi decomposition of G around the reduced terminals.
	vor := dist.BellmanFord(h, ns.t, dist.BFConfig{
		IsSource: cell >= 0 && cellSet[cell],
		SourceID: cell,
	})
	if !vor.Reached {
		panic("randforest: Voronoi decomposition did not reach every node")
	}

	// Boundary discovery: one exchange of (cell, dist), then propose the
	// induced inter-cell connections.
	deg := h.Degree()
	out := make([]congest.Send, 0, deg)
	vb, vc := dist.EncodeQ(vor.Dist)
	for p := 0; p < deg; p++ {
		out = append(out, congest.Send{Port: p, Wire: congest.Wire{Kind: wireVor, A: uint32(vor.Source), B: vb, C: vc}})
	}
	var props []congest.Wire
	for _, rc := range h.Exchange(out) {
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
	bFilter := func() dist.Filter {
		uf := graph.NewUnionFind(n)
		return func(x congest.Wire) bool {
			return uf.Union(int(x.A), int(x.B>>8))
		}
	}
	boundary := dist.UpcastBroadcast(h, ns.t, props, dist.EdgeItemCmp, bFilter, nil)

	// (d) Identical local solve of the reduced instance on the cell metric.
	cellIdx := make(map[int]int, len(cells))
	for i, c := range cells {
		cellIdx[c] = i
	}
	cg := graph.New(len(cells))
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
	for i, c := range cells {
		rins.Label[i] = comp.Find(c)
	}
	solved, err := moat.SolveAKR(rins)
	if err != nil {
		panic("randforest: reduced instance unsolvable: " + err.Error())
	}

	// (e) Mark the chosen connections: inducing edges plus token walks up
	// the Voronoi trees from both endpoints.
	tokens := 0
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
			tokens = 1
		}
	}
	seen := tokens > 0
	var sendBuf [1]congest.Send
	step := func(r int, in []congest.Recv) ([]congest.Send, bool) {
		got := false
		for _, rc := range in {
			if rc.Wire.Kind == wireToken {
				got = true
			}
		}
		if got && !seen {
			seen = true
			tokens = 1
		}
		if tokens > 0 && vor.ParentPort >= 0 {
			tokens = 0
			ns.out.mark(h.EdgeIndex(vor.ParentPort))
			sendBuf[0] = congest.Send{Port: vor.ParentPort, Wire: congest.Wire{Kind: wireToken}}
			return sendBuf[:], true
		}
		tokens = 0
		return nil, got
	}
	dist.RunQuiet(h, ns.t, step)

	// The walks end at fragment nodes; the fragments themselves are glued
	// by F edges, which every member knows locally.
	for p := range ns.inF {
		ns.out.mark(h.EdgeIndex(p))
	}
}
