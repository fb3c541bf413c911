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
// The node program is one congest.Driver run by congest.RunDriven; its
// stages are
//
//	bfs → terms → { cov exchange → BF → view exchange → collect } → mark
//
// with the braced stages once per merge phase. The BFS, the two
// collections, Bellman-Ford and the marking walk are the dist primitives'
// start forms, driven to completion in turn; the two exchanges are single
// rounds. The rounded variant is the same driver with a growth cap per
// phase (the stream also stops at the first candidate beyond it) and its
// threshold bookkeeping at each phase's end, where a stream that proves
// the next phases empty lets every node grow past them without running
// them (checkThreshold); it starts from the minimalized labels, the exact
// one from the raw ones.
//
// Every protocol message of the hot phases — terminal announcements,
// candidate merges, coverage and region-view exchanges, marking tokens —
// travels as an inline congest.Wire value, so a merge phase performs no
// boxed-message allocation; the dyadic weights ride the EncodeQ trick
// (denominator exponent in a few bits of B, numerator in C) and the two
// 24-bit id pairs pack into A/B and D.
//
// On tie-free instances the nodes accept the centralized oracle's merges,
// and the output forest is a subforest of the oracle's unpruned forest
// (moat.Result.Raw): usually exactly its pruned output, but Fmin prunes
// whole merges, not single physical edges, so an edge that two needed
// merge paths share and no demand needs stays in (TestSolveKeepsWholeMerges
// pins such an instance).
package detforest

import (
	"cmp"
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
	Phases   int // merge phases run (≤ 2k, Lemma 4.4; rounded: ≤ 6t, see SolveRounded)
	Merges   int // candidate merges selected across all phases
}

// Solve runs the Section 4.1 deterministic algorithm on ins and returns the
// selected 2-approximate forest with simulation statistics.
func Solve(ins *steiner.Instance, opts ...congest.Option) (*Result, error) {
	if err := ins.Validate(); err != nil {
		return nil, err
	}
	return solve(ins, [2]int64{}, opts)
}

// solve runs the node program on ins — the rounded variant when eps is
// set — and verifies the marked forest against the minimalized instance.
func solve(ins *steiner.Instance, eps [2]int64, opts []congest.Option) (*Result, error) {
	work := ins.Minimalize()
	// Section 4.1's nodes see the raw labels; singleton components are
	// discovered and dropped distributedly (Lemma 2.4) during the
	// announcement. The rounded variant starts from the minimalized ones.
	labels := ins.Label
	if eps[1] != 0 {
		labels = work.Label
	}
	out := &sharedOutput{selected: steiner.NewSolution(ins.G)}
	var node0 *nodeState // every node replays the same phases and merges
	stats, err := congest.RunDriven(ins.G, func(h *congest.Host) (congest.Request, congest.Driver) {
		ns := newNodeState(h, out, labels[h.ID()], eps)
		if h.ID() == 0 {
			node0 = ns
		}
		return ns.start()
	}, opts...)
	if err != nil {
		return nil, err
	}
	if err := steiner.Verify(work, out.selected); err != nil {
		return nil, fmt.Errorf("detforest: produced infeasible output: %w", err)
	}
	res := &Result{Solution: out.selected, Stats: stats}
	if node0 != nil {
		res.Phases, res.Merges = node0.phase, len(node0.allMerges)
	}
	return res, nil
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

// nodeState is one node's program: the driver whose stages the package
// doc lists. A stage that is a dist primitive runs as sub until it is
// done; Next then moves on to the next stage.
type nodeState struct {
	h     *congest.Host
	out   *sharedOutput
	tree  dist.Tree
	label int

	terms []termInfo // sorted by node id
	book  *moat.Book

	owner      int // owning terminal index, -1 if unclaimed
	parentPort int // port toward the region root, -1 at roots/unclaimed
	cov        []rational.Q

	// The rounded variant (Section 4.2, eps = ε as a fraction; zero for
	// Section 4.1): the cumulative moat growth Σµ, the threshold µ̂, and
	// the current phase's growth cap µ̂ - Σµ.
	eps       [2]int64
	total     rational.Q
	threshold int64
	cap       rational.Q

	phase     int
	allMerges []candItem

	stage uint8
	sub   congest.Driver // the running dist primitive, nil between them

	// The current phase's proposal view: claimed nodes keep their owner
	// with dhat 0; unclaimed nodes tentatively adopt the decomposition's
	// winner.
	myOwner    int
	myActive   bool
	myDhat     rational.Q
	tentParent int

	// The collection's moat-book replicas, re-borrowed from book every
	// phase (moat.Book.CloneInto), so their arrays are allocated once per
	// run: spec is the filter's speculative replica, ender replays the
	// accepted stream at the root to find the phase-ending merge. Only the
	// root evaluates stopAfter, so only the root allocates an ender, and
	// fills it on its first call of the phase (enderSet).
	spec     moat.Book
	ender    *moat.Book
	enderSet bool

	// Per-phase scratch, allocated at the first phase and reused: the merge
	// loop runs O(t) phases and every buffer here is degree-sized, so the
	// steady-state phase allocates nothing on this node's data plane.
	covOut  []congest.Send
	nbrCov  []rational.Q
	reduced []rational.Q
	view    []congest.Send
	nbr     []nbrView
	cands   []congest.Wire

	walk tokenWalk

	// Method values bound once, handed to the primitives every phase.
	weightFn func(port int) rational.Q
	filterFn func() dist.Filter
	acceptFn dist.Filter
	stopFn   func(congest.Wire) bool
}

// nodeState stages: the step the node's current request belongs to.
const (
	stageBFS     = uint8(iota) // building the BFS tree
	stageTerms                 // collecting the terminal announcements
	stageCov                   // the coverage exchange round
	stageBF                    // Bellman-Ford under the reduced weights
	stageView                  // the region-view exchange round
	stageCollect               // the filtered candidate collection
	stageMark                  // the token walk marking the forest
)

func newNodeState(h *congest.Host, out *sharedOutput, label int, eps [2]int64) *nodeState {
	ns := &nodeState{
		h:         h,
		out:       out,
		label:     label,
		owner:     -1,
		cov:       make([]rational.Q, h.Degree()),
		eps:       eps,
		threshold: 1,
	}
	ns.weightFn = ns.reducedWeight
	ns.filterFn = ns.newFilter
	ns.acceptFn = ns.accept
	ns.stopFn = ns.stopAfter
	return ns
}

func (ns *nodeState) rounded() bool { return ns.eps[1] != 0 }

// start returns the node's first request, the BFS build's.
func (ns *nodeState) start() (congest.Request, congest.Driver) {
	first, bfs := dist.StartBFS(ns.h, &ns.tree)
	ns.stage, ns.sub = stageBFS, bfs
	return first, ns
}

// drive makes d the running primitive, starting with first.
func (ns *nodeState) drive(first congest.Request, d congest.Driver) (congest.Request, bool) {
	ns.sub = d
	return first, true
}

// Next completes the request the node was waiting on — forwarding it to
// the running primitive while there is one — and returns the next one.
func (ns *nodeState) Next(in []congest.Recv) (congest.Request, bool) {
	if ns.sub != nil {
		if req, more := ns.sub.Next(in); more {
			return req, true
		}
		ns.sub = nil
	}
	switch ns.stage {
	case stageBFS:
		return ns.announce()
	case stageTerms:
		ns.installTerms(ns.tree.Collected())
		if len(ns.terms) == 0 {
			return congest.Request{}, false
		}
		return ns.nextPhase()
	case stageCov:
		return ns.decompose(in)
	case stageBF:
		return ns.exchangeView()
	case stageView:
		return ns.collect(in)
	case stageCollect:
		ns.endPhase()
		return ns.nextPhase()
	}
	return congest.Request{}, false // stageMark: the forest is marked
}

// announce starts Step 1: make all terminals and labels globally known.
func (ns *nodeState) announce() (congest.Request, bool) {
	var local []congest.Wire
	if ns.label != steiner.NoLabel {
		local = append(local, congest.Wire{Kind: wireTerm, A: uint32(ns.h.ID()), B: uint32(ns.label)})
	}
	ns.stage = stageTerms
	return ns.drive(dist.StartUpcastBroadcast(ns.h, &ns.tree, local, termCmp, nil, nil))
}

// installTerms builds the terminal table and moat bookkeeping from the
// globally broadcast terminal announcements, discarding singleton input
// components (the distributed counterpart of Lemma 2.4: after the
// announcement every node knows each label's multiplicity). all arrives
// sorted by node id (termCmp), so the table is too, and a label's
// multiplicity is its run in a sorted copy of the labels.
func (ns *nodeState) installTerms(all []congest.Wire) {
	buf := make([]int, 2*len(all))
	sorted, labels := buf[:len(all)], buf[len(all):len(all)]
	for i, x := range all {
		sorted[i] = int(x.B)
	}
	slices.Sort(sorted)
	ns.terms = slices.Grow(ns.terms[:0], len(all))
	for _, x := range all {
		l := int(x.B)
		if i, _ := slices.BinarySearch(sorted, l); i+1 == len(sorted) || sorted[i+1] != l {
			continue
		}
		ns.terms = append(ns.terms, termInfo{node: int(x.A), label: l})
		labels = append(labels, l)
	}
	ns.book = moat.NewBook(labels)
	// The accepted merges form a forest over the terminals: at most t-1,
	// so one allocation holds every phase's merges.
	ns.allMerges = make([]candItem, 0, max(len(ns.terms)-1, 0))
	if ns.rounded() {
		ns.book.SetRounded()
	}
	if idx, ok := ns.termIndex(ns.h.ID()); ok {
		ns.owner = idx
		ns.parentPort = -1
	}
}

// termIndex returns the terminal index of node, if it is a terminal.
func (ns *nodeState) termIndex(node int) (int, bool) {
	return slices.BinarySearchFunc(ns.terms, node, func(ti termInfo, node int) int { return cmp.Compare(ti.node, node) })
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

// nextPhase opens the next merge phase (Step 3) while any moat is active,
// with (a) the coverage exchange that agrees on the reduced edge weights
// Ŵj; once none is, it moves on to Steps 4+5. A rounded phase's growth is
// capped at the threshold budget µ̂ - Σµ.
func (ns *nodeState) nextPhase() (congest.Request, bool) {
	if !ns.book.AnyActive() {
		return ns.markEdges()
	}
	ns.phase++
	if ns.rounded() {
		ns.cap = rational.FromInt(ns.threshold).Sub(ns.total)
	}
	deg := ns.h.Degree()
	ns.phaseScratch(deg)
	for p := 0; p < deg; p++ {
		b, c := dist.EncodeQ(ns.cov[p])
		ns.covOut = append(ns.covOut, congest.Send{Port: p, Wire: congest.Wire{Kind: wireCov, B: b, C: c}})
	}
	ns.stage = stageCov
	return congest.Exchange(ns.covOut), true
}

// decompose reads the coverage exchange and starts (b): the terminal
// decomposition via multi-source Bellman-Ford with active regions as
// sources (Lemma 4.8).
func (ns *nodeState) decompose(in []congest.Recv) (congest.Request, bool) {
	h := ns.h
	for _, rc := range in {
		ns.nbrCov[rc.Port] = dist.DecodeQ(rc.Wire.B, rc.Wire.C)
	}
	for p := 0; p < h.Degree(); p++ {
		w := rational.FromInt(h.Weight(p)).Sub(ns.cov[p]).Sub(ns.nbrCov[p])
		ns.reduced[p] = rational.Max(w, rational.Q{})
	}
	ns.stage = stageBF
	return ns.drive(dist.StartBellmanFord(h, &ns.tree, dist.BFConfig{
		IsSource:   ns.owner >= 0 && ns.book.Active(ns.owner),
		SourceID:   ns.ownerNode(),
		EdgeWeight: ns.weightFn,
	}))
}

func (ns *nodeState) reducedWeight(port int) rational.Q { return ns.reduced[port] }

// exchangeView settles the phase's proposal view from the decomposition
// and starts (c): telling the neighbors.
func (ns *nodeState) exchangeView() (congest.Request, bool) {
	ns.myOwner, ns.myActive, ns.myDhat, ns.tentParent = ns.owner, false, rational.Q{}, -1
	if ns.owner >= 0 {
		ns.myActive = ns.book.Active(ns.owner)
	} else if bf := ns.tree.BF(); bf.Reached {
		ns.myOwner, _ = ns.termIndex(bf.Source)
		ns.myActive = true
		ns.myDhat = bf.Dist
		ns.tentParent = bf.ParentPort
	}
	w := nbrWire(ns.myOwner, ns.myActive, ns.myDhat)
	for p := 0; p < ns.h.Degree(); p++ {
		ns.view = append(ns.view, congest.Send{Port: p, Wire: w})
	}
	ns.stage = stageView
	return congest.Exchange(ns.view), true
}

// collect reads the neighbors' views, (d) proposes candidate merges on
// region boundary edges, and starts (e): their filtered collection,
// stopping at the phase-ending merge (Corollary 4.16).
func (ns *nodeState) collect(in []congest.Recv) (congest.Request, bool) {
	h := ns.h
	for _, rc := range in {
		ns.nbr[rc.Port] = nbrFromWire(rc.Wire)
	}
	if ns.myOwner >= 0 && ns.myActive {
		for p := 0; p < h.Degree(); p++ {
			o := ns.nbr[p]
			if o.ownerIdx < 0 || o.ownerIdx == ns.myOwner {
				continue
			}
			gap := ns.myDhat.Add(ns.reduced[p]).Add(o.dhat)
			weight := gap
			if o.active {
				weight = gap.Half()
			}
			v, w := ns.myOwner, o.ownerIdx
			if v > w {
				v, w = w, v
			}
			eu, ev := h.ID(), h.Neighbor(p)
			if eu > ev {
				eu, ev = ev, eu
			}
			ns.cands = append(ns.cands, candItem{Weight: weight, U: v, V: w, EU: eu, EV: ev}.Wire(wireCand))
		}
	}
	ns.enderSet = false
	ns.stage = stageCollect
	return ns.drive(dist.StartUpcastBroadcast(h, &ns.tree, ns.cands, dist.EdgeItemCmp, ns.filterFn, ns.stopFn))
}

// newFilter is the collection's filter factory: it re-borrows the node's
// speculative replica from the committed book and returns accept.
func (ns *nodeState) newFilter() dist.Filter {
	ns.book.CloneInto(&ns.spec)
	return ns.acceptFn
}

// accept is the node's filter: it drops a candidate that would close a
// cycle among the moats the replica has accepted.
func (ns *nodeState) accept(x congest.Wire) bool {
	v, w := dist.EdgeItemPair(x)
	if ns.spec.SameMoat(v, w) {
		return false
	}
	ns.spec.Merge(v, w)
	return true
}

// stopAfter ends the stream at the first activity-changing merge or, in a
// rounded phase, at the first candidate beyond the growth cap.
func (ns *nodeState) stopAfter(x congest.Wire) bool {
	if ns.rounded() && ns.cap.Less(dist.DecodeQ(x.B&0xff, x.C)) {
		return true // over the threshold: phase ends at µ̂
	}
	if !ns.enderSet {
		if ns.ender == nil {
			ns.ender = new(moat.Book)
		}
		ns.book.CloneInto(ns.ender)
		ns.enderSet = true
	}
	return ns.ender.Merge(dist.EdgeItemPair(x))
}

// endPhase (f) replays the accepted merges on the local replica, runs a
// capped rounded phase's threshold check, and (g) grows the regions by the
// phase's growth µ: claim newly covered nodes, extend edge coverage.
func (ns *nodeState) endPhase() {
	stream := ns.tree.Collected()
	mu, accepted, hitThreshold := ns.growth(stream)
	for _, x := range accepted {
		c := dist.EdgeItemFromWire(x)
		ns.book.Merge(c.U, c.V)
		ns.allMerges = append(ns.allMerges, c)
	}
	if hitThreshold {
		mu = ns.checkThreshold(stream)
	}
	if ns.owner < 0 && ns.myOwner >= 0 && ns.myDhat.LessEq(mu) {
		ns.owner = ns.myOwner
		ns.parentPort = ns.tentParent
	}
	for p := 0; p < ns.h.Degree(); p++ {
		o := ns.nbr[p]
		growMine := ns.myOwner >= 0 && ns.myActive
		growNbr := o.ownerIdx >= 0 && o.active
		ns.cov[p] = ns.cov[p].Add(coverGrowth(mu, ns.myDhat, o.dhat, ns.reduced[p], growMine, growNbr))
	}
	if !ns.rounded() {
		if ns.phase > 2*len(ns.terms)+2 {
			panic("detforest: merge phases exceed bound (protocol bug)")
		}
		return
	}
	ns.total = ns.total.Add(mu)
	// A run phase that neither merges nor deactivates a moat ended at its
	// cap with a no-op check and a tail (a stream is empty only when no
	// active moat borders another moat's region, so no other moat holds
	// its label, and the check deactivates it). So checkThreshold skipped
	// to the threshold that holds the tail, and the next phase merges it.
	// Each run phase is thus charged to a merge or deactivation in itself
	// or its successor: at most t-1 merges and, since moats only
	// deactivate at checks and each of the at most 2t-1 moats does so at
	// most once, 2t-1 deactivations, so at most 2(3t-2) < 6t phases run.
	if ns.phase > 6*len(ns.terms) {
		panic("detforest: rounded run does not terminate (protocol bug)")
	}
}

// checkThreshold runs the threshold check that ends a capped rounded phase
// and returns the phase's growth µ: its cap, plus the caps of every later
// phase the collected stream already proves empty. Those phases are
// skipped, not run. When the stream ends in an over-cap tail candidate
// and the check changed no moat's activity, the next phase would compute
// the same decomposition and the same candidates, each nearer by the
// growth, so the tail stays the stream's first candidate: every threshold
// below its meeting point ends a phase with no merge and a no-op check.
// Every node holds the stream, so every node skips alike; the
// decomposition stays valid across the longer growth as it does in a long
// Section 4.1 phase. A candidate exactly at a threshold belongs to that
// threshold's phase (stopAfter's tie rule).
func (ns *nodeState) checkThreshold(stream []congest.Wire) rational.Q {
	end := ns.threshold
	changed := ns.book.RecheckActivity()
	ns.threshold = nextThreshold(ns.threshold, ns.eps)
	if len(stream) > 0 && !changed {
		at := ns.total.Add(dist.EdgeItemFromWire(stream[len(stream)-1]).Weight)
		for rational.FromInt(ns.threshold).Less(at) {
			end = ns.threshold
			ns.threshold = nextThreshold(ns.threshold, ns.eps)
		}
	}
	return rational.FromInt(end).Sub(ns.total)
}

// growth decides a phase's growth µ from its accepted stream and returns
// the merges to replay. In Section 4.1, µ(j) is the phase-ender's weight.
// In a rounded phase, an over-cap tail item means the threshold was hit:
// the item is deferred to a later phase and the moats grow to the cap,
// or further when checkThreshold skips the phases before that item's.
func (ns *nodeState) growth(accepted []congest.Wire) (mu rational.Q, merges []congest.Wire, hitThreshold bool) {
	if !ns.rounded() {
		if len(accepted) == 0 {
			panic("detforest: active phase produced no merges (infeasible instance?)")
		}
		return dist.EdgeItemFromWire(accepted[len(accepted)-1]).Weight, accepted, false
	}
	if len(accepted) == 0 {
		return ns.cap, nil, true // no candidates at all: grow to the threshold
	}
	last := dist.EdgeItemFromWire(accepted[len(accepted)-1])
	if ns.cap.Less(last.Weight) {
		return ns.cap, accepted[:len(accepted)-1], true
	}
	return last.Weight, accepted, false
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

// markEdges starts Steps 4-5: every node computes the minimal solving
// subforest Fmin of the candidate forest locally, then the inducing edges'
// endpoints start tokens that walk up the region trees marking physical
// edges.
func (ns *nodeState) markEdges() (congest.Request, bool) {
	h, out := ns.h, ns.out
	w := &ns.walk
	*w = tokenWalk{h: h, out: out, parentPort: ns.parentPort}
	for _, c := range out.fmin(ns.terms, ns.allMerges) {
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
	ns.stage = stageMark
	return ns.drive(dist.StartQuiet(h, &ns.tree, w.step))
}

// tokenWalk is markEdges' StartQuiet step: the first token to reach a node
// (or to start there) moves one hop up its region tree per round, marking
// every edge it crosses; later tokens are absorbed.
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
