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
// (Steps 3b-3d of the detailed description).
//
// In truncated mode (the paper's s > √n regime) the virtual tree is cut at
// the √n highest-rank nodes S, the selected edge set F leaves one connected
// fragment per surviving "super-terminal" T_v, and a reduced instance over
// those fragments is solved by the second stage (see stage2.go).
//
// ModeKhanBaseline reproduces the congestion behaviour of the original [14]
// selection — labels processed sequentially with no cross-label
// multiplexing — as the O~(sk) comparison baseline of experiment T4.
//
// The node program is one congest.Driver run by congest.RunDriven, so no
// node has a coroutine (see nodeState for its stages). The per-round
// routing machinery is allocation-light: label sets are
// sorted int slices (their sorted iteration is also what makes round and
// message counts deterministic under a fixed seed), per-port queues are
// indexed slices of wire values, and the route/delegate/token messages
// travel as inline congest.Wire payloads instead of boxed interfaces.
package randforest

import (
	"fmt"
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
// congest.RunDriven, so no node has a coroutine. Its stages are
//
//	bfs → embed → labels → { census → route → back } → stageTwo
//
// with the braced stages once per virtual-tree level of a pass: one pass
// over the node's own label, or in ModeKhanBaseline one per label, and
// the second stage (stage2.go) in ModeTruncated only. A stage that is a
// dist primitive or the embedding runs as sub until it is done; Next then
// moves on to the next stage.
type nodeState struct {
	h     *congest.Host
	tree  dist.Tree
	label int
	mode  Mode
	out   *sharedOutput

	emb embed.Embedding
	inF []bool // per port: this node added the port's edge to F

	labels   []int            // global sorted label set
	sendBuf  []congest.Send   // reused per-round flush buffer
	queues   [][]congest.Wire // per-port pending sends, reused across levels
	rt       *router          // the first stage's routing state, reused across levels
	local    []congest.Wire   // the census items, reused across levels
	labelCap labelCap         // the census filter, reused across censuses

	stage uint8
	sub   congest.Driver // the running primitive, nil between them

	// The first stage's progress: passes started, the current pass's
	// level, and the labels this node holds at it (ascending).
	pass  int
	level int
	held  []int

	two *stageTwo // the second stage's state (ModeTruncated)
}

// nodeState stages: the step the node's current request belongs to.
const (
	stageBFS      = uint8(iota) // building the BFS tree
	stageEmbed                  // building the virtual-tree embedding
	stageLabels                 // the global label census
	stageCensus                 // a level's Step 3a census
	stageRoute                  // a level's Step 3c routing
	stageBack                   // a level's Step 3d delegation
	stageFrag                   // stageTwo: the super-terminal fragments
	stagePairs                  // stageTwo: the (cell, label) collection
	stageVoronoi                // stageTwo: the Voronoi decomposition
	stageBoundary               // stageTwo: the boundary exchange round
	stageProps                  // stageTwo: the boundary collection
	stageMark                   // stageTwo: the token walks
)

// start returns the node's first request, the BFS build's.
func (ns *nodeState) start() (congest.Request, congest.Driver) {
	ns.labelCap.bind()
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
		ns.stage = stageEmbed
		return ns.drive(embed.StartBuild(ns.h, &ns.tree, embed.Options{Truncate: ns.mode == ModeTruncated}, &ns.emb))
	case stageEmbed:
		deg := ns.h.Degree()
		ns.inF = make([]bool, deg)
		ns.sendBuf = make([]congest.Send, 0, deg)
		ns.queues = make([][]congest.Wire, deg)
		return ns.collectLabels()
	case stageLabels:
		ns.installLabels()
		return ns.nextPass()
	case stageCensus:
		return ns.route()
	case stageRoute:
		return ns.delegate()
	case stageBack:
		ns.held = ns.rt.next
		sort.Ints(ns.held)
		ns.level++
		return ns.census()
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

// collectLabels starts the census of the global label set with at most
// two witnesses per label (O(k + D) rounds), also the basis of the
// singleton deletions in every level's Step 3a.
func (ns *nodeState) collectLabels() (congest.Request, bool) {
	var local []congest.Wire
	if ns.label != steiner.NoLabel {
		local = append(local, congest.Wire{Kind: wireLabel, A: uint32(ns.label), B: uint32(ns.h.ID())})
	}
	ns.stage = stageLabels
	return ns.drive(dist.StartUpcastBroadcast(ns.h, &ns.tree, local, pairCmp, ns.labelCap.newFn, nil))
}

// installLabels reads the global label set off the census stream, which
// is (lbl, node)-sorted: one pass over its runs yields the ascending set.
func (ns *nodeState) installLabels() {
	got := ns.tree.Collected()
	for i := 0; i < len(got); {
		lbl := got[i].A
		for i < len(got) && got[i].A == lbl {
			i++
		}
		ns.labels = append(ns.labels, int(lbl))
	}
}

// sortedLabels returns the label set in ascending order. Every iteration
// over a label set that feeds messages into the network must be sorted:
// map order would shuffle per-port queues and upcast pipelines between
// runs, making round and message counts nondeterministic under a fixed
// seed.
func sortedLabels(m map[int]bool) []int {
	labels := make([]int, 0, len(m))
	for lbl := range m {
		labels = append(labels, lbl)
	}
	sort.Ints(labels)
	return labels
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

// census starts level ns.level's Step 3a, which drops labels held by a
// single node, or ends the pass after the last level.
func (ns *nodeState) census() (congest.Request, bool) {
	if ns.level > ns.emb.L {
		return ns.nextPass()
	}
	ns.local = ns.local[:0]
	for _, lbl := range ns.held {
		ns.local = append(ns.local, congest.Wire{Kind: wireLabel, A: uint32(lbl), B: uint32(ns.h.ID())})
	}
	ns.stage = stageCensus
	return ns.drive(dist.StartUpcastBroadcast(ns.h, &ns.tree, ns.local, pairCmp, ns.labelCap.newFn, nil))
}

// route finishes Step 3a and starts Steps 3b-3c, or ends the pass when
// every label is satisfied (all nodes agree and leave together). The
// collected stream is (lbl, node)-sorted, so the census is a run-length
// pass and the surviving set an in-place sorted intersection — no
// per-level maps.
func (ns *nodeState) route() (congest.Request, bool) {
	h, l := ns.h, ns.held
	got := ns.tree.Collected()
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
	for _, lbl := range ns.held {
		key := chainKey{lbl: lbl, dst: anc.Node}
		rt.originated[key] = true
		if anc.Node == h.ID() {
			rt.gather(key)
			continue
		}
		rt.push(ns.routePort(anc.Node, anc.NextHop),
			congest.Wire{Kind: wireRoute, A: uint32(anc.Node), C: int64(lbl)})
	}

	// Step 3c: route with per-chain dedup until quiescence.
	ns.stage = stageRoute
	return ns.drive(dist.StartQuiet(h, &ns.tree, rt.routeStep))
}

// delegate is Step 3d: each ancestor delegates its gathered labels to the
// originator of the first chain that reached it.
func (ns *nodeState) delegate() (congest.Request, bool) {
	rt := ns.rt
	if len(rt.gatherOrder) > 0 {
		pick := rt.gatherOrder[0]
		if rt.originated[pick] {
			rt.next = append(rt.next, sortedLabels(rt.gathered)...)
		} else {
			back := rt.firstFrom[pick]
			for _, lbl := range sortedLabels(rt.gathered) {
				rt.push(back, delegWire(pick.lbl, pick.dst, lbl))
			}
		}
	}
	ns.stage = stageBack
	return ns.drive(dist.StartQuiet(ns.h, &ns.tree, rt.backStep))
}

// chainKey names one routing chain: a label aimed at an ancestor.
type chainKey struct{ lbl, dst int }

// router is a node's Step 3c/3d state for one level of the first stage. It is
// built once per node and reset per level, and its two RunQuiet steps
// are bound once, so a level allocates only what its maps outgrow.
type router struct {
	ns          *nodeState
	firstFrom   map[chainKey]int  // first-receipt port per chain
	originated  map[chainKey]bool // chains this node started
	gathered    map[int]bool      // l̂: labels gathered here as ancestor
	gatherOrder []chainKey        // self chains arriving here, in order
	next        []int             // the labels this node holds next level
	routeStep   dist.Step
	backStep    dist.Step
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
		rt.routeStep, rt.backStep = rt.route, rt.back
		ns.rt = rt
	}
	clear(rt.firstFrom)
	clear(rt.originated)
	clear(rt.gathered)
	rt.gatherOrder = rt.gatherOrder[:0]
	rt.next = nil // becomes the next level's held set
	for p := range ns.queues {
		ns.queues[p] = ns.queues[p][:0]
	}
	return rt
}

func (rt *router) push(port int, w congest.Wire) {
	rt.ns.queues[port] = append(rt.ns.queues[port], w)
}

// gather records a chain that reached its ancestor here.
func (rt *router) gather(key chainKey) {
	if !rt.gathered[key.lbl] {
		rt.gathered[key.lbl] = true
		rt.gatherOrder = append(rt.gatherOrder, key)
	}
}

// flush emits the head of every nonempty port queue, in port order, into
// the reused send buffer, marking the edges into F when markF is set.
func (rt *router) flush(markF bool) ([]congest.Send, bool) {
	ns := rt.ns
	out := ns.sendBuf[:0]
	for p, q := range ns.queues {
		if len(q) == 0 {
			continue
		}
		out = append(out, congest.Send{Port: p, Wire: q[0]})
		ns.queues[p] = q[1:]
		if markF {
			ns.markPort(p)
		}
	}
	ns.sendBuf = out
	return out, len(out) > 0
}

// route is Step 3c: forward each chain's first arrival toward its
// ancestor, recording the traversed edges in F.
func (rt *router) route(_ int, in []congest.Recv) ([]congest.Send, bool) {
	ns := rt.ns
	for _, rc := range in {
		if rc.Wire.Kind != wireRoute {
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
		rt.push(ns.routePort(dst, -2), rc.Wire)
	}
	return rt.flush(true)
}

// back is Step 3d: walk each delegation back along its chain to the
// originator, which adopts the delegated label.
func (rt *router) back(_ int, in []congest.Recv) ([]congest.Send, bool) {
	for _, rc := range in {
		if rc.Wire.Kind != wireDeleg {
			continue
		}
		key := chainKey{lbl: int(rc.Wire.B), dst: int(rc.Wire.A)}
		if rt.originated[key] {
			rt.next = append(rt.next, int(rc.Wire.C))
			continue
		}
		back, ok := rt.firstFrom[key]
		if !ok {
			panic("randforest: delegation chain broken")
		}
		rt.push(back, rc.Wire)
	}
	return rt.flush(false)
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
