// Package detforest implements the paper's deterministic distributed
// Steiner Forest algorithms (Section 4): the O(ks+t)-round emulation of the
// centralized moat-growing Algorithm 1 (Section 4.1, Theorem 4.17), and the
// growth-phase variant with rounded radii from Section 4.2 that trades the
// exact factor 2 for (2+ε) and fewer decomposition recomputations.
//
// Structure of the Section 4.1 node program, mirroring Appendix E.1:
//
//  1. build a BFS tree; make every terminal's (id, label) globally known
//     (pipelined upcast + broadcast, O(D+t) rounds);
//  2. per merge phase: exchange edge-coverage state, run multi-source
//     Bellman-Ford under reduced weights to extend the terminal
//     decomposition (Lemma 4.8), propose candidate merges on region
//     boundary edges (Definition 4.11), and collect them with the
//     cycle-filtered pipelined upcast of Corollary 4.16, stopping at the
//     phase-ending (activity-changing) merge;
//  3. replay the accepted merges on every node's replica of the moat
//     bookkeeping, grow regions by µ(j), and repeat while any moat is
//     active;
//  4. select the minimal solving subforest of the candidate forest locally
//     and mark its physical edges by walking tokens up the region trees
//     (Step 5 of the algorithm in Appendix E.1).
//
// Every protocol message of the hot phases — terminal announcements,
// candidate merges, coverage and region-view exchanges, marking tokens —
// travels as an inline congest.Wire value, so a merge phase performs no
// boxed-message allocation; the dyadic weights ride the EncodeQ trick
// (denominator exponent in a few bits of B, numerator in C) and the two
// 24-bit id pairs pack into A/B and D.
//
// The output forest has, on tie-free instances, exactly the weight of the
// centralized oracle's output, which the test suite asserts.
package detforest

import (
	"fmt"
	"slices"
	"sync"

	"steinerforest/internal/congest"
	"steinerforest/internal/dist"
	"steinerforest/internal/moat"
	"steinerforest/internal/rational"
	"steinerforest/internal/steiner"
)

// Result is the outcome of a distributed run.
type Result struct {
	Solution *steiner.Solution
	Stats    *congest.Stats
	Phases   int // merge phases executed (bounded by 2k, Lemma 4.4)
	Merges   int // candidate merges selected across all phases
}

// Solve runs the Section 4.1 deterministic algorithm on ins and returns the
// selected 2-approximate forest with simulation statistics.
func Solve(ins *steiner.Instance, opts ...congest.Option) (*Result, error) {
	return solve(ins, opts)
}

func solve(ins *steiner.Instance, opts []congest.Option) (*Result, error) {
	if err := ins.Validate(); err != nil {
		return nil, err
	}
	work := ins.Minimalize()
	out := &sharedOutput{selected: steiner.NewSolution(ins.G)}
	var phases, merges int
	var once sync.Once
	program := func(h *congest.Host) {
		// Nodes see the raw labels; singleton components are discovered
		// and dropped distributedly (Lemma 2.4) during the announcement.
		ns := newNodeState(h, ins.Label[h.ID()])
		ns.run(out)
		once.Do(func() {
			phases = ns.phase
			merges = len(ns.allMerges)
		})
	}
	stats, err := congest.Run(ins.G, program, opts...)
	if err != nil {
		return nil, err
	}
	if err := steiner.Verify(work, out.selected); err != nil {
		return nil, fmt.Errorf("detforest: produced infeasible output: %w", err)
	}
	return &Result{Solution: out.selected, Stats: stats, Phases: phases, Merges: merges}, nil
}

// sharedOutput gathers each node's incident selected edges; it is the
// simulation harness's output channel, not part of the protocol.
type sharedOutput struct {
	mu       sync.Mutex
	selected *steiner.Solution

	fminOnce sync.Once
	fminV    []candItem
}

func (o *sharedOutput) mark(edgeIndex int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.selected.Add(edgeIndex)
}

// fmin memoizes minimalSubforest for the run: every node replays the
// identical local computation from the globally known terminal list and
// merge stream, so the harness computes it once and hands every node the
// same read-only slice. Purely a simulation shortcut — no protocol state
// flows through it.
func (o *sharedOutput) fmin(terms []termInfo, merges []candItem) []candItem {
	o.fminOnce.Do(func() { o.fminV = minimalSubforest(terms, merges) })
	return o.fminV
}

// Wire kinds of this package (range 16-23 of the congest.Wire partition).
// Widths match the former boxed forms exactly — the collected item kinds
// include the 2 header bits their up/down envelopes used to add — so the
// wire migration leaves Stats bit-identical.
const (
	// wireToken walks up region trees during final edge marking (2-bit
	// control marker).
	wireToken uint16 = 16
	// wireTerm announces a terminal during step 1: A = node, B = label.
	wireTerm uint16 = 17
	// wireCand is a candidate merge item: A = terminal index v,
	// B = weight denominator exponent | terminal index w << 8,
	// C = weight numerator, D = edge endpoints eu << 32 | ev.
	wireCand uint16 = 18
	// wireCov carries one side's cumulative edge coverage: (B, C) = the
	// EncodeQ'd dyadic.
	wireCov uint16 = 19
	// wireNbr announces a node's post-decomposition region view:
	// A = owning terminal index (two's complement; -1 if unowned),
	// B = dhat denominator exponent | active bit << 8, C = dhat numerator.
	wireNbr uint16 = 20
)

func init() {
	congest.RegisterWireKind(wireToken, 2)
	congest.RegisterWireKind(wireTerm, 2*24+2)
	congest.RegisterWireKindFunc(wireCand, candWireBits)
	congest.RegisterWireKindFunc(wireCov, covWireBits)
	congest.RegisterWireKindFunc(wireNbr, nbrWireBits)
}

// candWireBits accounts a candidate item exactly as the boxed form plus its
// pipeline envelope did: weight + four 24-bit ids + 2 item header bits +
// 2 envelope bits.
func candWireBits(w congest.Wire) int {
	return dist.EdgeItemBits(w) + 2 + 2
}

// covWireBits: the dyadic coverage + 2 header bits, as covMsg accounted.
func covWireBits(w congest.Wire) int {
	return dist.EncodedQBits(w.B, w.C) + 2
}

// nbrWireBits: 24-bit owner + activity bit + dhat + 2 header bits, as
// nbrMsg accounted.
func nbrWireBits(w congest.Wire) int {
	return 24 + 1 + dist.EncodedQBits(w.B&0xff, w.C) + 2
}

// termInfo is the globally broadcast terminal table entry.
type termInfo struct {
	node  int
	label int
}

// nbrView is a neighbor's decoded region view.
type nbrView struct {
	ownerIdx int // terminal index, -1 if unowned
	active   bool
	dhat     rational.Q
}

func nbrWire(ownerIdx int, active bool, dhat rational.Q) congest.Wire {
	b, c := dist.EncodeQ(dhat)
	if active {
		b |= 1 << 8
	}
	return congest.Wire{Kind: wireNbr, A: uint32(int32(ownerIdx)), B: b, C: c}
}

func nbrFromWire(w congest.Wire) nbrView {
	return nbrView{
		ownerIdx: int(int32(w.A)),
		active:   w.B>>8&1 == 1,
		dhat:     dist.DecodeQ(w.B&0xff, w.C),
	}
}

// candItem is a candidate merge (Definition 4.11): merging the moats of
// terminals U and V (indices into the terminal table) via graph edge
// {EU, EV}, at moat growth weight Weight from the phase start. The wire
// codec and comparator are dist's shared EdgeItem ones (randforest's
// boundary proposals use the same shape).
type candItem = dist.EdgeItem

// termCmp orders terminal announcements by node id.
func termCmp(a, b congest.Wire) int {
	if a.A != b.A {
		if a.A < b.A {
			return -1
		}
		return 1
	}
	return 0
}

type nodeState struct {
	h     *congest.Host
	t     *dist.Tree
	label int

	terms []termInfo
	tIdx  map[int]int // node id -> terminal index
	book  *moat.Book

	owner      int // owning terminal index, -1 if unclaimed
	parentPort int // port toward the region root, -1 at roots/unclaimed
	cov        []rational.Q

	eps       [2]int64 // ε as a fraction (rounded variant only)
	phase     int
	allMerges []candItem

	// Per-phase scratch, allocated at the first phase and reused: the merge
	// loop runs O(t) phases and every buffer here is degree-sized, so the
	// steady-state phase allocates nothing on this node's data plane.
	covOut  []congest.Send
	nbrCov  []rational.Q
	reduced []rational.Q
	view    []congest.Send
	nbr     []nbrView
	cands   []congest.Wire
}

// phaseScratch resets (lazily allocating) the per-phase buffers.
func (ns *nodeState) phaseScratch(deg int) {
	if ns.nbrCov == nil {
		ns.covOut = make([]congest.Send, 0, deg)
		ns.view = make([]congest.Send, 0, deg)
		ns.cands = make([]congest.Wire, 0, deg)
		ns.nbrCov = make([]rational.Q, deg)
		ns.reduced = make([]rational.Q, deg)
		ns.nbr = make([]nbrView, deg)
	}
	ns.covOut = ns.covOut[:0]
	ns.view = ns.view[:0]
	ns.cands = ns.cands[:0]
	for p := 0; p < deg; p++ {
		ns.nbrCov[p] = rational.Q{}
		ns.nbr[p] = nbrView{ownerIdx: -1}
	}
}

// installTerms builds the terminal table and moat bookkeeping from the
// globally broadcast terminal announcements, discarding singleton input
// components (the distributed counterpart of Lemma 2.4: after the
// announcement every node knows each label's multiplicity).
func (ns *nodeState) installTerms(all []congest.Wire) {
	counts := make(map[int]int, len(all))
	for _, x := range all {
		counts[int(x.B)]++
	}
	ns.terms = slices.Grow(ns.terms[:0], len(all))
	ns.tIdx = make(map[int]int, len(all))
	labels := make([]int, 0, len(all))
	for _, x := range all {
		ti := termInfo{node: int(x.A), label: int(x.B)}
		if counts[ti.label] < 2 {
			continue
		}
		ns.tIdx[ti.node] = len(ns.terms)
		ns.terms = append(ns.terms, ti)
		labels = append(labels, ti.label)
	}
	ns.book = moat.NewBook(labels)
}

func newNodeState(h *congest.Host, label int) *nodeState {
	return &nodeState{
		h:     h,
		label: label,
		owner: -1,
		cov:   make([]rational.Q, h.Degree()),
	}
}

func (ns *nodeState) run(out *sharedOutput) {
	h := ns.h
	ns.t = dist.BuildBFS(h)

	// Step 1: make all terminals and labels globally known.
	var local []congest.Wire
	if ns.label != steiner.NoLabel {
		local = append(local, congest.Wire{Kind: wireTerm, A: uint32(h.ID()), B: uint32(ns.label)})
	}
	all := dist.UpcastBroadcast(h, ns.t, local, termCmp, nil, nil)
	ns.installTerms(all)
	if idx, ok := ns.tIdx[h.ID()]; ok {
		ns.owner = idx
		ns.parentPort = -1
	}
	if len(ns.terms) == 0 {
		return
	}

	// Step 3: merge phases.
	for ns.book.AnyActive() {
		ns.phase++
		ns.runPhase()
		if ns.phase > 2*len(ns.terms)+2 {
			panic("detforest: merge phases exceed bound (protocol bug)")
		}
	}

	// Steps 4+5: select the minimal subforest and mark its edges.
	ns.markEdges(out)
}

// runPhase executes one merge phase: decomposition, candidate collection,
// replay, and region growth.
func (ns *nodeState) runPhase() {
	h := ns.h
	deg := h.Degree()

	// (a) Exchange coverage to agree on reduced edge weights Ŵj.
	ns.phaseScratch(deg)
	covOut := ns.covOut
	for p := 0; p < deg; p++ {
		b, c := dist.EncodeQ(ns.cov[p])
		covOut = append(covOut, congest.Send{Port: p, Wire: congest.Wire{Kind: wireCov, B: b, C: c}})
	}
	nbrCov := ns.nbrCov
	for _, rc := range h.Exchange(covOut) {
		nbrCov[rc.Port] = dist.DecodeQ(rc.Wire.B, rc.Wire.C)
	}
	reduced := ns.reduced
	for p := 0; p < deg; p++ {
		w := rational.FromInt(h.Weight(p)).Sub(ns.cov[p]).Sub(nbrCov[p])
		reduced[p] = rational.Max(w, rational.Q{})
	}

	// (b) Terminal decomposition via multi-source Bellman-Ford with active
	// regions as sources (Lemma 4.8).
	activeOwned := ns.owner >= 0 && ns.book.Active(ns.owner)
	bf := dist.BellmanFord(h, ns.t, dist.BFConfig{
		IsSource:   activeOwned,
		SourceID:   ns.ownerNode(),
		EdgeWeight: func(port int) rational.Q { return reduced[port] },
	})

	// Effective proposal view: claimed nodes keep their owner with dhat 0;
	// unclaimed nodes tentatively adopt the decomposition's winner.
	myOwner, myActive, myDhat := ns.owner, false, rational.Q{}
	tentParent := -1
	if ns.owner >= 0 {
		myActive = ns.book.Active(ns.owner)
	} else if bf.Reached {
		myOwner = ns.tIdx[bf.Source]
		myActive = true
		myDhat = bf.Dist
		tentParent = bf.ParentPort
	}

	// (c) Tell neighbors the view.
	view := ns.view
	for p := 0; p < deg; p++ {
		view = append(view, congest.Send{Port: p, Wire: nbrWire(myOwner, myActive, myDhat)})
	}
	nbr := ns.nbr
	for _, rc := range h.Exchange(view) {
		nbr[rc.Port] = nbrFromWire(rc.Wire)
	}

	// (d) Propose candidate merges on region boundary edges.
	cands := ns.cands
	if myOwner >= 0 && myActive {
		for p := 0; p < deg; p++ {
			o := nbr[p]
			if o.ownerIdx < 0 || o.ownerIdx == myOwner {
				continue
			}
			gap := myDhat.Add(reduced[p]).Add(o.dhat)
			weight := gap
			if o.active {
				weight = gap.Half()
			}
			v, w := myOwner, o.ownerIdx
			if v > w {
				v, w = w, v
			}
			eu, ev := h.ID(), h.Neighbor(p)
			if eu > ev {
				eu, ev = ev, eu
			}
			cands = append(cands, candItem{Weight: weight, U: v, V: w, EU: eu, EV: ev}.Wire(wireCand))
		}
	}

	// (e) Filtered collection, stopping at the phase-ending merge
	// (Corollary 4.16).
	newFilter := func() dist.Filter {
		spec := ns.book.Clone()
		return func(x congest.Wire) bool {
			v, w := dist.EdgeItemPair(x)
			if spec.SameMoat(v, w) {
				return false
			}
			spec.Merge(v, w)
			return true
		}
	}
	ender := ns.book.Clone()
	stopAfter := func(x congest.Wire) bool {
		return ender.Merge(dist.EdgeItemPair(x))
	}
	accepted := dist.UpcastBroadcast(h, ns.t, cands, dist.EdgeItemCmp, newFilter, stopAfter)
	if len(accepted) == 0 {
		panic("detforest: active phase produced no merges (infeasible instance?)")
	}

	// (f) Replay on the local replica; µ(j) is the phase-ender's weight.
	mu := dist.EdgeItemFromWire(accepted[len(accepted)-1]).Weight
	ns.allMerges = slices.Grow(ns.allMerges, len(accepted))
	for _, x := range accepted {
		c := dist.EdgeItemFromWire(x)
		ns.book.Merge(c.U, c.V)
		ns.allMerges = append(ns.allMerges, c)
	}

	// (g) Grow regions: claim newly covered nodes, extend edge coverage.
	if ns.owner < 0 && myOwner >= 0 && myDhat.LessEq(mu) {
		ns.owner = myOwner
		ns.parentPort = tentParent
	}
	for p := 0; p < deg; p++ {
		o := nbr[p]
		growMine := myOwner >= 0 && myActive
		growNbr := o.ownerIdx >= 0 && o.active
		ns.cov[p] = ns.cov[p].Add(coverGrowth(mu, myDhat, o.dhat, reduced[p], growMine, growNbr))
	}
}

// coverGrowth computes how much of an edge's remaining (reduced) length the
// near side's moat covers during a phase of total growth mu, given both
// sides' reduced distances and whether each side grows. Fronts enter the
// edge at their dhat and stop where they meet.
func coverGrowth(mu, dNear, dFar, reduced rational.Q, growNear, growFar bool) rational.Q {
	if !growNear || reduced.IsZero() {
		return rational.Q{}
	}
	limit := mu
	if growFar {
		// Meeting time along this edge: (reduced + dNear + dFar) / 2.
		meet := reduced.Add(dNear).Add(dFar).Half()
		limit = rational.Min(limit, meet)
	}
	return rational.Clamp(limit.Sub(dNear), rational.Q{}, reduced)
}

func (ns *nodeState) ownerNode() int {
	if ns.owner < 0 {
		return -1
	}
	return ns.terms[ns.owner].node
}

// markEdges performs Steps 4-5: every node computes the minimal solving
// subforest Fmin of the candidate forest locally, then the inducing edges'
// endpoints start tokens that walk up the region trees marking physical
// edges.
func (ns *nodeState) markEdges(out *sharedOutput) {
	h := ns.h
	fmin := out.fmin(ns.terms, ns.allMerges)

	w := &tokenWalk{h: h, out: out, parentPort: ns.parentPort}
	for _, c := range fmin {
		if h.ID() == c.EU || h.ID() == c.EV {
			other := c.EU
			if h.ID() == c.EU {
				other = c.EV
			}
			if p, ok := h.PortOf(other); ok {
				out.mark(h.EdgeIndex(p))
			}
			if !w.seen {
				w.seen = true
				w.tokens++
			}
		}
	}
	dist.RunQuiet(h, ns.t, w.step)
}

// tokenWalk is markEdges' RunQuiet step: the first token to reach a node
// (or to start there) moves one hop up its region tree per round, marking
// every edge it crosses; later tokens are absorbed. It copies what it
// reads of the node state instead of pointing at it, so the driver that
// holds the step does not move the node state to the heap.
type tokenWalk struct {
	h          *congest.Host
	out        *sharedOutput
	parentPort int
	tokens     int // pending token sends up the parent chain
	seen       bool
	send       [1]congest.Send
}

func (w *tokenWalk) step(_ int, in []congest.Recv) ([]congest.Send, bool) {
	got := false
	for _, rc := range in {
		if rc.Wire.Kind == wireToken {
			got = true
		}
	}
	if got && !w.seen {
		w.seen = true
		w.tokens++
	}
	if pp := w.parentPort; w.tokens > 0 && pp >= 0 {
		w.tokens = 0
		w.out.mark(w.h.EdgeIndex(pp))
		w.send[0] = congest.Send{Port: pp, Wire: congest.Wire{Kind: wireToken}}
		return w.send[:], true
	}
	w.tokens = 0
	return nil, got
}

// minimalSubforest computes Fmin: the subset of accepted merges whose
// removal would split an input component within its candidate-forest tree.
// Every node replays this identical local computation, so it is kept flat:
// labels are densified to small ids once and the post-order label
// multiplicities live in one [terminal][label] matrix instead of per-node
// maps (t and the label count are both bounded by the terminal count).
func minimalSubforest(terms []termInfo, merges []candItem) []candItem {
	n := len(terms)
	adj := make([][]int, n) // terminal index -> merge indices
	for mi, c := range merges {
		adj[c.U] = append(adj[c.U], mi)
		adj[c.V] = append(adj[c.V], mi)
	}
	lblIdx := make(map[int]int, n) // label -> dense id
	lbl := make([]int, n)          // terminal index -> dense label id
	var totals []int32             // dense label id -> multiplicity
	for i, ti := range terms {
		id, ok := lblIdx[ti.label]
		if !ok {
			id = len(totals)
			lblIdx[ti.label] = id
			totals = append(totals, 0)
		}
		lbl[i] = id
		totals[id]++
	}
	nl := len(totals)
	counts := make([]int32, n*nl) // row v: subtree label multiplicities
	needed := make([]bool, len(merges))
	visited := make([]bool, n)
	for root := 0; root < n; root++ {
		if visited[root] {
			continue
		}
		// Iterative post-order over the merge forest.
		type frame struct {
			node, parentMerge, childIdx int
		}
		stack := []frame{{node: root, parentMerge: -1}}
		counts[root*nl+lbl[root]]++
		visited[root] = true
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.childIdx < len(adj[f.node]) {
				mi := adj[f.node][f.childIdx]
				f.childIdx++
				if mi == f.parentMerge {
					continue
				}
				c := merges[mi]
				next := c.U
				if next == f.node {
					next = c.V
				}
				if visited[next] {
					continue
				}
				visited[next] = true
				counts[next*nl+lbl[next]]++
				stack = append(stack, frame{node: next, parentMerge: mi})
				continue
			}
			stack = stack[:len(stack)-1]
			if f.parentMerge == -1 {
				continue
			}
			row := counts[f.node*nl : (f.node+1)*nl]
			for l, c := range row {
				if c > 0 && c < totals[l] {
					needed[f.parentMerge] = true
					break
				}
			}
			parent := stack[len(stack)-1].node
			prow := counts[parent*nl : (parent+1)*nl]
			for l, c := range row {
				prow[l] += c
			}
		}
	}
	var fmin []candItem
	for mi, c := range merges {
		if needed[mi] {
			fmin = append(fmin, c)
		}
	}
	slices.SortFunc(fmin, func(a, b candItem) int {
		switch {
		case a.Less(b):
			return -1
		case b.Less(a):
			return 1
		default:
			return 0
		}
	})
	return fmin
}
