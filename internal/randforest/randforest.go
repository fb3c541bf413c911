// Package randforest implements the paper's randomized distributed Steiner
// Forest algorithm (Section 5, Theorem 5.2): an O(log n)-approximation in
// O~(k + min{s, √n} + D) rounds w.h.p.
//
// The first stage embeds the graph into a virtual tree ([14], built by
// package embed) and then selects, per level i = 0..L, one representative
// per (label, ancestor) pair: labels are routed up shortest-path trees with
// per-(λ, destination) filtering and per-edge queueing (the round-robin
// multiplexing that improves [14]'s O~(sk) second phase to O~(s+k)), and
// each ancestor delegates all labels it gathered to a single descendant
// (Steps 3b-3d of the detailed description). Routing and delegation share
// one quiescence loop per level: an ancestor delegates each label as it
// gathers it, and a delegation waits behind every route wire queued on
// its port, so the routing — and with it F and the gathered sets — is
// that of a delegation-free loop. The next level's Step 3a census, which
// drops the labels a single node holds, rides the same loop both ways:
// each gatherer's (label, id) item goes up the BFS tree in rounds its
// port has no route or delegation wire to send, capped at two per label,
// and the root's census comes back down on the loop's exit wave
// (dist.StartQuietList). Level 0 reads the global label census instead,
// which rides the BFS build's completion and finish waves
// (dist.StartBFSCollect).
//
// In truncated mode (the paper's s > √n regime) the virtual tree is cut at
// the √n highest-rank nodes S, the selected edge set F leaves one connected
// fragment per surviving "super-terminal" T_v, and a reduced instance over
// those fragments is solved by the second stage (see stage2.go).
//
// ModeKhanBaseline reproduces the congestion behaviour of the original [14]
// selection — labels processed sequentially with no cross-label
// multiplexing — as the O~(sk) comparison baseline of experiment T4. Its
// passes keep a collected census at level 0, of the one label they
// route; their later levels' censuses ride the routing loops too.
//
// The node program is one congest.Driver run by congest.RunDriven (see
// nodeState for its stages). The per-round
// routing machinery is allocation-light: label sets are
// sorted int slices (their sorted iteration is also what makes round and
// message counts deterministic under a fixed seed), per-port queues are
// wire slices with the route wires ahead of the delegations, and the
// route/delegate/token messages travel as inline congest.Wire payloads
// instead of boxed interfaces.
package randforest

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"steinerforest/internal/congest"
	"steinerforest/internal/dist"
	"steinerforest/internal/embed"
	"steinerforest/internal/steiner"
)

// Mode selects the algorithm variant.
type Mode int

// Variants of the randomized algorithm.
const (
	// ModeFull runs the untruncated first stage (the s <= sqrt(n) path).
	ModeFull Mode = iota + 1
	// ModeTruncated cuts the virtual tree at S and runs the second stage.
	ModeTruncated
	// ModeKhanBaseline routes labels sequentially like [14] (O~(sk)).
	ModeKhanBaseline
)

// Result is the outcome of a randomized run.
type Result struct {
	Solution *steiner.Solution
	Stats    *congest.Stats
	Levels   int // virtual-tree levels L+1
}

// Solve runs the randomized algorithm on ins in the given mode.
func Solve(ins *steiner.Instance, mode Mode, opts ...congest.Option) (*Result, error) {
	if err := ins.Validate(); err != nil {
		return nil, err
	}
	work := ins.Minimalize()
	out := &sharedOutput{selected: steiner.NewSolution(ins.G)}
	var node0 *nodeState // every node derives the same L
	stats, err := congest.RunDriven(ins.G, func(h *congest.Host) (congest.Request, congest.Driver) {
		// Raw labels: singleton components are detected and dropped by the
		// distributed label census (Step 3a / Lemma 2.4).
		ns := &nodeState{h: h, label: ins.Label[h.ID()], mode: mode, out: out}
		if h.ID() == 0 {
			node0 = ns
		}
		return ns.start()
	}, opts...)
	if err != nil {
		return nil, err
	}
	if err := steiner.Verify(work, out.selected); err != nil {
		return nil, fmt.Errorf("randforest: infeasible output: %w", err)
	}
	res := &Result{Solution: out.selected, Stats: stats}
	if node0 != nil {
		res.Levels = node0.emb.L + 1
	}
	return res, nil
}

type sharedOutput struct {
	mu       sync.Mutex
	selected *steiner.Solution
}

func (o *sharedOutput) mark(edgeIndex int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.selected.Add(edgeIndex)
}

// Wire kinds of this package (range 24-31 of the congest.Wire partition).
// A route message carries label C toward virtual-tree destination A
// (Step 3c); a delegation message retraces chain (key B, dst A) handing
// over label C (Step 3d); the token walks up Voronoi trees during
// second-stage edge marking. The collected item kinds — label census
// entries, (cell, label) pairs, boundary proposals — and the Voronoi view
// exchange ride inline wires too, with widths matching the former boxed
// forms (collected kinds include the 2 envelope header bits), so the
// migration leaves Stats bit-identical.
const (
	wireRoute uint16 = 24
	wireDeleg uint16 = 25
	wireToken uint16 = 26
	// wireLabel announces that node B holds label A; the collection filter
	// keeps at most two per label, enough to detect singletons (Step 3a)
	// and to enumerate the global label set.
	wireLabel uint16 = 27
	// wireCellLabel links super-terminal cell A with hosted label index B.
	wireCellLabel uint16 = 28
	// wireBoundary proposes an inter-cell connection: A = cell cu,
	// B = weight denominator exponent | cell cv << 8, C = weight numerator,
	// D = inducing edge endpoints eu << 32 | ev.
	wireBoundary uint16 = 29
	// wireVor announces a node's Voronoi cell A and distance (B, C) for
	// boundary-edge discovery.
	wireVor uint16 = 30
)

func init() {
	congest.RegisterWireKind(wireRoute, 2*24)
	congest.RegisterWireKind(wireDeleg, 3*24)
	congest.RegisterWireKind(wireToken, 2)
	congest.RegisterWireKind(wireLabel, 2*24+2)
	congest.RegisterWireKind(wireCellLabel, 2*24+2)
	congest.RegisterWireKindFunc(wireBoundary, boundaryWireBits)
	congest.RegisterWireKindFunc(wireVor, vorWireBits)
}

// pairCmp orders two-id items by (A, B) ascending — the label census and
// (cell, label) streams.
func pairCmp(a, b congest.Wire) int {
	if a.A != b.A {
		if a.A < b.A {
			return -1
		}
		return 1
	}
	if a.B != b.B {
		if a.B < b.B {
			return -1
		}
		return 1
	}
	return 0
}

// nodeState is one node's program, a congest.Driver run by
// congest.RunDriven. Its stages are
//
//	bfs+labels → embed → { [census] → route → route → … } → stageTwo
//
// with the braced stages once per pass and route once per virtual-tree
// level (Steps 3a-3d: the census read, the routing, the streamed
// delegations and the next level's census riding along): one pass over
// the node's own label, whose level 0 reads the label census that rode
// the BFS build, or in ModeKhanBaseline one per label, each opening with
// a collected level-0 census; and the second stage (stage2.go) in
// ModeTruncated only. A stage that is a dist primitive or the embedding runs as sub
// until it is done; Next then moves on to the next stage.
type nodeState struct {
	h     *congest.Host
	tree  dist.Tree
	label int
	mode  Mode
	out   *sharedOutput

	emb embed.Embedding
	inF []bool // per port: this node added the port's edge to F

	labels      []int            // global sorted label set
	labelCensus []congest.Wire   // the global label census: a copy, since the embedding's S election reuses the tree's stream
	sendBuf     []congest.Send   // reused per-round flush buffer
	queues      [][]congest.Wire // per-port pending sends, reused across levels
	rt          *router          // the first stage's routing state, reused across levels
	labelCap    labelCap         // the collected censuses' filter

	stage    uint8
	censusOn bool           // the next level's census rides this level's routing loop
	sub      congest.Driver // the running primitive, nil between them

	// The first stage's progress: passes started, the current pass's
	// level, and the labels this node holds at it (ascending).
	pass  int
	level int
	held  []int

	two *stageTwo // the second stage's state (ModeTruncated)
}

// nodeState stages: the step the node's current request belongs to.
const (
	stageBFS      = uint8(iota) // building the BFS tree, with the global label census
	stageEmbed                  // building the virtual-tree embedding
	stageCensus                 // a baseline pass's level-0 census
	stageRoute                  // a level's Steps 3c-3d, routing and delegation, and the next level's census
	stageFrag                   // stageTwo: the super-terminal fragments
	stagePairs                  // stageTwo: the (cell, label) collection
	stageVoronoi                // stageTwo: the Voronoi decomposition
	stageBoundary               // stageTwo: the boundary exchange round
	stageProps                  // stageTwo: the boundary collection
	stageMark                   // stageTwo: the token walks
)

// start returns the node's first request: the BFS build with the census
// of the global label set riding it, at most two witnesses per label
// (O(k + D) rounds), also level 0's Step 3a in a pass over the nodes' own
// labels.
func (ns *nodeState) start() (congest.Request, congest.Driver) {
	ns.labelCap.bind()
	var local []congest.Wire
	if ns.label != steiner.NoLabel {
		local = append(local, congest.Wire{Kind: wireLabel, A: uint32(ns.label), B: uint32(ns.h.ID())})
	}
	first, bfs := dist.StartBFSCollect(ns.h, &ns.tree, local, pairCmp, ns.labelCap.newFn)
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
		ns.installLabels()
		ns.stage = stageEmbed
		return ns.drive(embed.StartBuild(ns.h, &ns.tree, embed.Options{Truncate: ns.mode == ModeTruncated}, &ns.emb))
	case stageEmbed:
		deg := ns.h.Degree()
		ns.inF = make([]bool, deg)
		ns.sendBuf = make([]congest.Send, 0, deg)
		ns.queues = make([][]congest.Wire, deg)
		return ns.nextPass()
	case stageCensus:
		return ns.route()
	case stageRoute:
		ns.held = ns.rt.next
		sort.Ints(ns.held)
		if ns.level++; ns.level > ns.emb.L {
			return ns.nextPass()
		}
		return ns.route()
	case stageFrag:
		return ns.two.collectPairs()
	case stagePairs:
		return ns.two.voronoi()
	case stageVoronoi:
		return ns.two.exchange()
	case stageBoundary:
		return ns.two.collectBoundary(in)
	case stageProps:
		return ns.two.solve()
	}
	ns.two.finish() // stageMark: the walks are over
	return congest.Request{}, false
}

// labelCap filters a (lbl, node)-sorted label stream down to at most two
// witnesses per label. The stream order lets a run-length counter replace
// a per-item map. A node keeps one, reset by its filter factory (newFn)
// for each census, so a census allocates no filter.
type labelCap struct {
	last     uint32
	run      int // witnesses of last passed; 0 before the stream's first item
	newFn    func() dist.Filter
	acceptFn dist.Filter
}

// bind binds the factory and the filter once.
func (c *labelCap) bind() { c.newFn, c.acceptFn = c.reset, c.accept }

// reset starts a new stream.
func (c *labelCap) reset() dist.Filter {
	c.run = 0
	return c.acceptFn
}

func (c *labelCap) accept(x congest.Wire) bool {
	if c.run == 0 || x.A != c.last {
		c.last, c.run = x.A, 1
		return true
	}
	if c.run >= 2 {
		return false
	}
	c.run++
	return true
}

// installLabels keeps the label census and reads the global label set
// off it: the stream is (lbl, node)-sorted, so one pass over its runs
// yields the ascending set, after a first pass that sizes it.
func (ns *nodeState) installLabels() {
	got := slices.Clone(ns.tree.Collected())
	ns.labelCensus = got
	k := 0
	for i := range got {
		if i == 0 || got[i].A != got[i-1].A {
			k++
		}
	}
	ns.labels = make([]int, 0, k)
	for i := range got {
		if i == 0 || got[i].A != got[i-1].A {
			ns.labels = append(ns.labels, int(got[i].A))
		}
	}
}

// nextPass starts the first stage's next pass over the virtual-tree
// levels, or, once the passes are over, the second stage (ModeTruncated)
// or the end. There is one pass over the node's own label; the baseline
// (ModeKhanBaseline) runs one per global label, holding it at level 0
// only where it is the node's own.
func (ns *nodeState) nextPass() (congest.Request, bool) {
	var mine []int
	switch {
	case ns.mode == ModeKhanBaseline:
		if ns.pass == len(ns.labels) {
			return ns.endStageOne()
		}
		if lbl := ns.labels[ns.pass]; ns.label == lbl {
			mine = []int{lbl}
		}
	case ns.pass > 0:
		return ns.endStageOne()
	case ns.label != steiner.NoLabel:
		mine = []int{ns.label}
	}
	ns.pass++
	ns.level, ns.held = 0, mine
	if ns.mode != ModeKhanBaseline {
		// Level 0's census would collect exactly the label census's items
		// (every node's own label) through the same filter: route from
		// it.
		return ns.route()
	}
	return ns.census()
}

// endStageOne moves on from the first stage: to the second in
// ModeTruncated, else to the end.
func (ns *nodeState) endStageOne() (congest.Request, bool) {
	if ns.mode == ModeTruncated {
		return ns.startStageTwo()
	}
	return congest.Request{}, false
}

// census starts a baseline pass's level-0 Step 3a, which drops its label
// if a single node holds it: a collected census of the pass's holders.
// Every later level's census rides the level below's routing loop, whose
// census queue is idle meanwhile and holds the item.
func (ns *nodeState) census() (congest.Request, bool) {
	rt := ns.router()
	local := rt.censusQ
	if len(ns.held) > 0 {
		local = append(local, congest.Wire{Kind: wireLabel, A: uint32(ns.held[0]), B: uint32(ns.h.ID())})
	}
	rt.censusQ = local
	ns.stage = stageCensus
	return ns.drive(dist.StartUpcastBroadcast(ns.h, &ns.tree, local, pairCmp, ns.labelCap.newFn, nil))
}

// route finishes Step 3a and starts Steps 3b-3d, or ends the pass when
// every label is satisfied (all nodes agree and leave together). The
// census is the label census at level 0 (a baseline pass's collected
// one), or the exit list of the level below's routing loop. Either is (lbl, node)-sorted with at most two
// items per label, so Step 3a is a run-length pass and the surviving set
// an in-place sorted intersection — no per-level maps. Held labels are
// aimed in ascending order, so round and message counts are
// deterministic under a fixed seed.
func (ns *nodeState) route() (congest.Request, bool) {
	h, l := ns.h, ns.held
	got := ns.labelCensus
	switch {
	case ns.level > 0:
		got = ns.tree.QuietList()
	case ns.mode == ModeKhanBaseline:
		got = ns.tree.Collected()
	}
	anyLive := false
	kept := l[:0] // in-place: writes trail the read cursor
	li := 0
	for i := 0; i < len(got); {
		lbl := int(got[i].A)
		j := i
		for j < len(got) && int(got[j].A) == lbl {
			j++
		}
		if j-i >= 2 {
			anyLive = true
			for li < len(l) && l[li] < lbl {
				li++
			}
			if li < len(l) && l[li] == lbl {
				kept = append(kept, lbl)
				li++
			}
		}
		i = j
	}
	if !anyLive {
		return ns.nextPass()
	}
	ns.held = kept

	// Step 3b: aim each held label at the level-i ancestor.
	anc, _ := ns.emb.Ancestor(ns.level)
	rt := ns.router()
	ns.censusOn = ns.level < ns.emb.L
	for _, lbl := range ns.held {
		key := chainKey{lbl: lbl, dst: anc.Node}
		rt.originated[key] = true
		if anc.Node == h.ID() {
			rt.gather(key)
			continue
		}
		ns.pushRoute(ns.routePort(anc.Node, anc.NextHop),
			congest.Wire{Kind: wireRoute, A: uint32(anc.Node), C: int64(lbl)})
	}

	// Steps 3c-3d: route with per-chain dedup, and delegate back down,
	// until quiescence; below the top level the next level's census rides
	// along, up with the routes and down on the exit wave.
	ns.stage = stageRoute
	return ns.drive(dist.StartQuietList(h, &ns.tree, rt.step, &rt.censusQ))
}

// chainKey names one routing chain: a label aimed at an ancestor.
type chainKey struct{ lbl, dst int }

// router is a node's Step 3c/3d state for one level of the first stage. It is
// built once per node and reset per level, and its StartQuiet step is
// bound once, so a level allocates only what its maps outgrow.
type router struct {
	ns         *nodeState
	firstFrom  map[chainKey]int  // first-receipt port per chain
	originated map[chainKey]bool // chains this node started
	gathered   map[int]bool      // l̂: labels gathered here as ancestor
	pick       chainKey          // the first chain gathered here, if any: the delegation chain
	next       []int             // the labels this node holds next level
	step       dist.Step

	// The next level's census (see tally): per global label, the items
	// passed on here, and the items themselves — a stack for the parent
	// port, or at the root the census, (lbl, node)-sorted.
	censusN []uint8
	censusQ []congest.Wire
}

// router returns the node's router, reset for a new level: empty maps,
// empty port queues.
func (ns *nodeState) router() *router {
	rt := ns.rt
	if rt == nil {
		rt = &router{
			ns:         ns,
			firstFrom:  map[chainKey]int{},
			originated: map[chainKey]bool{},
			gathered:   map[int]bool{},
		}
		rt.step = rt.route
		ns.rt = rt
	}
	clear(rt.firstFrom)
	clear(rt.originated)
	clear(rt.gathered)
	rt.next = nil // becomes the next level's held set
	for p := range ns.queues {
		ns.queues[p] = ns.queues[p][:0]
	}
	if rt.censusN == nil {
		rt.censusN = make([]uint8, len(ns.labels))
	}
	clear(rt.censusN)
	rt.censusQ = rt.censusQ[:0]
	return rt
}

// pushRoute queues route wire w on port p. A port's queue holds its route
// wires, then its delegations: a delegation goes only in a round in which
// the port has no route wire queued, so a level's route wires move exactly
// as they would with no delegation in flight.
func (ns *nodeState) pushRoute(p int, w congest.Wire) {
	q := ns.queues[p]
	i := len(q)
	for i > 0 && q[i-1].Kind == wireDeleg {
		i--
	}
	ns.queues[p] = slices.Insert(q, i, w)
}

// gather records a chain that reached its ancestor here and delegates the
// label, if new, down the first chain gathered here: that chain is fixed
// by its arrival, and its firstFrom ports were set on the way up. A new
// label also enters the next level's census, when one rides the loop.
func (rt *router) gather(key chainKey) {
	if rt.gathered[key.lbl] {
		return
	}
	if len(rt.gathered) == 0 {
		rt.pick = key
	}
	rt.gathered[key.lbl] = true
	rt.delegate(delegWire(rt.pick.lbl, rt.pick.dst, key.lbl))
	if rt.ns.censusOn {
		rt.tally(congest.Wire{Kind: wireLabel, A: uint32(key.lbl), B: uint32(rt.ns.h.ID())})
	}
}

// tally passes census item w — label A gathered at node B — on toward the
// BFS root, unless two items of its label passed here already: stacked
// for the parent port (the census is order-free), or, at the root, put in
// place in the sorted census.
//
// The census counts a label's gatherers, and that count is exact for the
// next level's Step 3a, which needs the label's holders there. Each
// ancestor that gathers λ delegates it once, to one originator: the
// originator of its first gathered chain, which adopts λ. A node
// originates chains only toward its own level-i ancestor, so distinct
// ancestors delegate to distinct originators. Hence λ has as many holders
// at level i+1 as gatherers at level i, and it is live there (at least two
// holders) iff the census holds two items of it; the cap of two per label
// keeps that count exact.
func (rt *router) tally(w congest.Wire) {
	i := sort.SearchInts(rt.ns.labels, int(w.A))
	if rt.censusN[i] == 2 {
		return
	}
	rt.censusN[i]++
	if rt.ns.tree.IsRoot() {
		j, _ := slices.BinarySearchFunc(rt.censusQ, w, pairCmp)
		rt.censusQ = slices.Insert(rt.censusQ, j, w)
		return
	}
	rt.censusQ = append(rt.censusQ, w)
}

// delegate passes delegation w one hop down its chain, or adopts its label
// at the chain's originator.
func (rt *router) delegate(w congest.Wire) {
	key := chainKey{lbl: int(w.B), dst: int(w.A)}
	if rt.originated[key] {
		rt.next = append(rt.next, int(w.C))
		return
	}
	back, ok := rt.firstFrom[key]
	if !ok {
		panic("randforest: delegation chain broken")
	}
	rt.ns.queues[back] = append(rt.ns.queues[back], w)
}

// flush emits the head of every nonempty port queue, in port order, into
// the reused send buffer, marking the edges into F. A delegation retraces
// a chain whose edges are in F already. A census item goes on the parent
// port only in a round with no route or delegation wire queued there, so
// the routing, the delegations and with them F and the next held sets
// are those of a census-free loop.
func (rt *router) flush() ([]congest.Send, bool) {
	ns := rt.ns
	out := ns.sendBuf[:0]
	for p, q := range ns.queues {
		if len(q) == 0 {
			if k := len(rt.censusQ); p == ns.tree.ParentPort && k > 0 {
				out = append(out, congest.Send{Port: p, Wire: rt.censusQ[k-1]})
				rt.censusQ = rt.censusQ[:k-1]
			}
			continue
		}
		out = append(out, congest.Send{Port: p, Wire: q[0]})
		ns.queues[p] = q[1:]
		ns.markPort(p)
	}
	ns.sendBuf = out
	return out, len(out) > 0
}

// route is Steps 3c-3d: forward each chain's first arrival toward its
// ancestor, recording the traversed edges in F, and each delegation toward
// its chain's originator.
func (rt *router) route(_ int, in []congest.Recv) ([]congest.Send, bool) {
	ns := rt.ns
	for _, rc := range in {
		if k := rc.Wire.Kind; k != wireRoute {
			switch k {
			case wireDeleg:
				rt.delegate(rc.Wire)
			case wireLabel:
				rt.tally(rc.Wire)
			}
			continue
		}
		lbl, dst := int(rc.Wire.C), int(rc.Wire.A)
		// The edge was traversed, so both endpoints record it in F.
		ns.markPort(rc.Port)
		key := chainKey{lbl: lbl, dst: dst}
		if _, dup := rt.firstFrom[key]; dup || rt.originated[key] {
			continue
		}
		rt.firstFrom[key] = rc.Port
		if dst == ns.h.ID() {
			rt.gather(key)
			continue
		}
		ns.pushRoute(ns.routePort(dst, -2), rc.Wire)
	}
	return rt.flush()
}

// delegWire encodes a delegation. Like the 24-bit id accounting it
// inherits from the boxed form, it assumes labels fit the id width (the
// chain label rides the 32-bit B slot).
func delegWire(key, dst, lbl int) congest.Wire {
	return congest.Wire{Kind: wireDeleg, A: uint32(dst), B: uint32(key), C: int64(lbl)}
}

// routePort resolves the forwarding port toward dst: members of S route via
// the Bellman-Ford tree toward their nearest S node (whose region contains
// the whole chain), everything else via the LE-list next hop. fallback is
// used when the caller already knows the port (ancestor entries).
func (ns *nodeState) routePort(dst int, fallback int) int {
	if ns.emb.Truncated && ns.inSSet(dst) {
		return ns.emb.PortS
	}
	if p, ok := ns.emb.NextHop[dst]; ok && p >= 0 {
		return p
	}
	if fallback >= 0 {
		return fallback
	}
	panic(fmt.Sprintf("randforest: node %d has no route to %d", ns.h.ID(), dst))
}

func (ns *nodeState) inSSet(node int) bool {
	i := sort.SearchInts(ns.emb.S, node)
	return i < len(ns.emb.S) && ns.emb.S[i] == node
}

// markPort records that the edge at port p belongs to F.
func (ns *nodeState) markPort(p int) {
	if !ns.inF[p] {
		ns.inF[p] = true
		ns.out.mark(ns.h.EdgeIndex(p))
	}
}
