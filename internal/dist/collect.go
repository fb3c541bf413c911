package dist

import (
	"slices"

	"steinerforest/internal/congest"
)

// StartUpcastBroadcast collects the nodes' local items into one globally
// sorted, filtered stream known to every node (the paper's pipelined upcast +
// broadcast, Lemma 4.14): items flow up the BFS tree in ascending order,
// one per tree edge per round, interior nodes merge their children's
// streams with their own and prune them through a speculative replica of
// the filter (Corollary 4.16), and the root pipelines each item it
// accepts back down in the round it decides it, so the downcast runs
// while the upcast still feeds the root. Every node ends with the
// identical accepted stream, in order.
//
// Items are congest.Wire values of one registered kind, ordered by cmp (a
// strict total order with content tie-breaking); direction needs no
// encoding, since a non-root node receives the down stream only on its
// parent port and up streams only on child ports. Carrying the items
// inline, never boxed per hop, is what keeps the deterministic solver's candidate collection, its
// round-dominant phase, allocation-free.
//
// newFilter, when non-nil, is called once per node to create that node's
// filter replica; see Filter for the required monotonicity. stopAfter,
// evaluated at the root over accepted items, ends the stream after (and
// including) the first item for which it returns true — the "phase-ending
// merge" device of Section 4. Both may be nil. The first down wire the
// root sends once the stream is cut carries a cut code (Wire.Ctl), on
// which every node still upcasting stops: the wire reaches each node when
// the first down wire of a collect whose downcast waits for the cut
// would, so a cut costs no more upcast messages than that schedule.
//
// Rounds: about 2·height + the items the root accepts, or decides up to
// the cut, plus the items the interior filters pass: the downcast trails
// the root's decisions by one round, and the end marker follows the last
// of them. Nodes sleep whenever the pipeline gives them nothing to say:
// while blocked on a lagging child, after their subtree's stream is
// exhausted, and (at the root) between decisions. Parked stretches run as
// engine-side relay orders, which forward each item without resuming the
// stage.
//
// StartUpcastBroadcast sorts local and returns the first request and the
// driver of the pipeline (upcast, cached on t), which releases local, cmp
// and the filters once it is done. t.Collected() is the node's accepted
// stream from then on. On a single-node network the stream is decided
// here.
//
// The stream lives in a buffer the tree reuses: t.Collected() is valid
// until the tree's next collect or exit list, which overwrites it. A
// caller that keeps the stream longer copies it.
func StartUpcastBroadcast(h *congest.Host, t *Tree, local []congest.Wire, cmp Cmp, newFilter func() Filter, stopAfter func(congest.Wire) bool) (congest.Request, congest.Driver) {
	if h.N() <= 1 {
		t.stream = t.stream[:0]
		collectAlone(t, local, cmp, newFilter, stopAfter)
		return congest.Idle(0), finished{}
	}
	u := t.upcast(h)
	u.begin(local, cmp, newFilter, stopAfter)
	u.state = upRun
	return u.round(), u
}

// collectAlone decides a single node's stream: its own sorted, filtered
// items up to the cut.
func collectAlone(t *Tree, local []congest.Wire, cmp Cmp, newFilter func() Filter, stopAfter func(congest.Wire) bool) {
	slices.SortStableFunc(local, cmp)
	var filter Filter
	if newFilter != nil {
		filter = newFilter()
	}
	for _, it := range local {
		if filter != nil && !filter(it) {
			continue
		}
		t.stream = append(t.stream, it)
		if stopAfter != nil && stopAfter(it) {
			break
		}
	}
}

// Collected returns the node's accepted stream of the tree's latest
// StartUpcastBroadcast or StartBFSCollect. It aliases the tree's stream
// buffer, valid until the tree's next collect or exit list
// (StartQuietList).
func (t *Tree) Collected() []congest.Wire { return t.stream }

// ctlCut is the collect's one control code: the root's first down wire
// after a stopAfter cut carries it, and a node still upcasting stops.
const ctlCut uint8 = 1

// upcast states: the request the node is waiting on.
const (
	bfsJoin   = uint8(iota) // StartBFSCollect: asleep until the explore flood arrives
	bfsFlood                // StartBFSCollect: the flood round
	bfsAccept               // StartBFSCollect: the round the children's accepts arrive
	upRun                   // a round of the pipeline, or asleep until mail
	upRelay                 // a single-child passthrough relay order
	downRelay               // a relay order on the parent's stream
	upIdle                  // the idle-out to the common exit round
)

// upcast is the per-node state machine of StartUpcastBroadcast and
// StartBFSCollect: the pipeline split at its round barriers. It is built
// once per tree and reset per call; its child and forward queues and its
// stream buffer keep their capacity across calls.
type upcast struct {
	h         *congest.Host
	t         *Tree
	childOf   []int // port -> child index, -1 otherwise
	parent    [1]int
	kids      []childStream  // per child, in ChildPorts order
	fwd       []congest.Wire // non-root: down wires to forward, from fwdHead, codes kept
	fwdHead   int
	local     []congest.Wire
	cmp       Cmp
	filter    Filter
	stopAfter func(congest.Wire) bool

	// bfs marks StartBFSCollect: the up stream ends with the build's
	// completion wire (wireDoneUp, the subtree's maximum depth, maxDepth)
	// and the down stream with its finish wire (wireFinish, the height);
	// a plain collect ends them with wireUpDone and wireDownEnd.
	bfs      bool
	r0       int // bfs: the entry round
	maxDepth int

	state     uint8
	ownNext   int
	sent      int  // root: t.stream items sent down
	final     bool // root: the stream is decided
	cutNext   bool // root: the next down wire carries the cut code
	upDone    bool // non-root: our up stream ended, or the cut arrived
	exitRound int
}

// upcast returns t's cached collect driver, binding it to the tree's
// children on first use.
func (t *Tree) upcast(h *congest.Host) *upcast {
	if t.up == nil {
		u := &upcast{h: h, t: t}
		u.bind()
	}
	return t.up
}

// bind sizes the driver's per-port and per-child tables for the tree's
// final child set and caches it on the tree.
func (u *upcast) bind() {
	t := u.t
	u.parent[0] = t.ParentPort
	u.childOf = make([]int, u.h.Degree())
	for p := range u.childOf {
		u.childOf[p] = -1
	}
	for i, p := range t.ChildPorts {
		u.childOf[p] = i
	}
	u.kids = make([]childStream, len(t.ChildPorts))
	t.up = u
}

// begin resets the driver for a call over local.
func (u *upcast) begin(local []congest.Wire, cmp Cmp, newFilter func() Filter, stopAfter func(congest.Wire) bool) {
	slices.SortStableFunc(local, cmp)
	u.local, u.cmp, u.filter, u.stopAfter = local, cmp, nil, stopAfter
	if newFilter != nil {
		u.filter = newFilter()
	}
	for i := range u.kids {
		k := &u.kids[i]
		k.items, k.head, k.done = k.items[:0], 0, false
	}
	u.fwd, u.fwdHead = u.fwd[:0], 0
	u.t.stream = u.t.stream[:0] // the broadcast stream (root: accepted)
	u.bfs, u.maxDepth = false, u.t.Depth
	u.ownNext, u.sent = 0, 0
	u.final, u.cutNext, u.upDone = false, false, false
	u.exitRound = -1
}

// childStream is one child's upcast stream as seen by its parent.
type childStream struct {
	items []congest.Wire // received, ascending; pending from head on
	head  int
	done  bool // the child's end marker arrived
}

func (k *childStream) pending() []congest.Wire { return k.items[k.head:] }

// canPop reports whether the smallest remaining item of this subtree is
// determined: every child stream has a visible head or has ended, and at
// least one item is available.
func (u *upcast) canPop() bool {
	any := u.ownNext < len(u.local)
	for i := range u.kids {
		if len(u.kids[i].pending()) > 0 {
			any = true
		} else if !u.kids[i].done {
			return false
		}
	}
	return any
}

func (u *upcast) popMin() congest.Wire {
	best := -1 // -1 = own list
	var bestIt congest.Wire
	has := false
	if u.ownNext < len(u.local) {
		bestIt, has = u.local[u.ownNext], true
	}
	for i := range u.kids {
		q := u.kids[i].pending()
		if len(q) == 0 {
			continue
		}
		if !has || u.cmp(q[0], bestIt) < 0 {
			best, bestIt, has = i, q[0], true
		}
	}
	if best < 0 {
		u.ownNext++
	} else {
		u.kids[best].head++
	}
	return bestIt
}

func (u *upcast) allEnded() bool {
	if u.ownNext < len(u.local) {
		return false
	}
	for i := range u.kids {
		if !u.kids[i].done || len(u.kids[i].pending()) > 0 {
			return false
		}
	}
	return true
}

// upEnd is the kind of the up stream's end marker, downEnd the down
// stream's.
func (u *upcast) upEnd() uint16 {
	if u.bfs {
		return wireDoneUp
	}
	return wireUpDone
}

func (u *upcast) downEnd() uint16 {
	if u.bfs {
		return wireFinish
	}
	return wireDownEnd
}

// process folds one round's inbox into the upcast and downcast state.
func (u *upcast) process(in []congest.Recv) {
	t := u.t
	for _, rc := range in {
		w := rc.Wire
		if rc.Port != t.ParentPort {
			k := &u.kids[u.childOf[rc.Port]]
			if w.Kind == u.upEnd() {
				k.done = true
				u.maxDepth = max(u.maxDepth, int(w.C))
			} else {
				k.items = append(k.items, w)
			}
			continue
		}
		if len(t.ChildPorts) > 0 {
			u.fwd = append(u.fwd, w)
		}
		if w.Ctl == ctlCut {
			u.upDone = true
		}
		if w.Kind == u.downEnd() {
			u.ended(w, u.h.Round())
			continue
		}
		w.Ctl = 0
		t.stream = append(t.stream, w)
	}
}

// ended records the down stream's end marker end, which arrived in the
// round that completed at arrived: the node leaves height - depth rounds
// later, when the marker reaches the deepest node.
func (u *upcast) ended(end congest.Wire, arrived int) {
	if u.bfs {
		u.t.Height = int(end.C)
	}
	u.exitRound = arrived + u.t.Height - u.t.Depth
}

// Next completes the request the node was waiting on and returns the
// next one.
func (u *upcast) Next(in []congest.Recv) (congest.Request, bool) {
	h, t := u.h, u.t
	switch u.state {
	case bfsJoin:
		// The inbox is port-sorted, so the lowest explorer wins the
		// parent role.
		t.Depth = h.Round() - u.r0
		t.ParentPort = in[0].Port
		return u.flood(), true
	case bfsFlood:
		// Accepts arrive exactly one round after the flood (explores from
		// same-level neighbors may share the inbox).
		u.state = bfsAccept
		return congest.Exchange(nil), true
	case bfsAccept:
		for _, rc := range in {
			if rc.Wire.Kind == wireAccept {
				t.ChildPorts = append(t.ChildPorts, rc.Port)
			}
		}
		// The child set is final and port-sorted: the collect starts.
		u.bind()
		u.maxDepth = t.Depth
		u.state = upRun
	case upRun:
		u.process(in)
	case upRelay:
		stream, last := h.RelaySplit(in)
		if k := len(stream); k > 0 && stream[k-1].Wire.Kind == u.upEnd() {
			// The engine forwarded the child's end marker as ours (at a
			// BFS build, the child's maximum depth is the subtree's).
			u.kids[0].done = true
			u.upDone = true
		}
		u.process(last)
	case downRelay:
		stream, last := h.RelaySplit(in)
		t.stream = slices.Grow(t.stream, len(stream))
		for _, rc := range stream {
			// Already forwarded by the engine: record, don't queue.
			w := rc.Wire
			if w.Kind == u.downEnd() {
				// The marker arrived one round before its forward when
				// we have children, in the waking round otherwise.
				arrived := h.Round()
				if len(t.ChildPorts) > 0 {
					arrived--
				}
				u.ended(w, arrived)
				break
			}
			w.Ctl = 0
			t.stream = append(t.stream, w)
		}
		// Stray mail of the marker's forward round is ignored, as the
		// loop's discarded Exchange result would have been.
		if u.exitRound < 0 {
			u.process(last)
		}
	default: // upIdle: the common exit round
		u.local, u.cmp, u.filter, u.stopAfter = nil, nil, nil, nil
		return congest.Request{}, false
	}
	return u.round(), true
}

// round returns the node's next request of the pipeline.
func (u *upcast) round() congest.Request {
	if u.t.IsRoot() {
		return u.rootRound()
	}
	return u.nodeRound()
}

// rootRound decides every item the root's view determines and sends the
// oldest accepted item not yet sent down: one item per round, the cut
// code on the first after a cut, then the end marker once the stream is
// decided (at a BFS build the finish wire, carrying the height), then the
// idle-out to the common exit round, by which the marker has reached the
// deepest node. Stragglers still upcasting after a cut deliver items that
// are ignored.
func (u *upcast) rootRound() congest.Request {
	t := u.t
	for !u.final && u.canPop() {
		it := u.popMin()
		if u.filter != nil && !u.filter(it) {
			continue
		}
		t.stream = append(t.stream, it)
		if u.stopAfter != nil && u.stopAfter(it) {
			u.final, u.cutNext = true, true
		}
	}
	if !u.final && u.allEnded() {
		u.final = true
		if u.bfs {
			t.Height = u.maxDepth
		}
	}
	switch {
	case u.sent < len(t.stream):
		w := t.stream[u.sent]
		if u.cutNext {
			w.Ctl, u.cutNext = ctlCut, false
		}
		u.sent++
		return congest.Exchange(t.toChildren(w))
	case !u.final:
		return congest.Sleep()
	case u.exitRound < 0:
		u.exitRound = u.h.Round() + t.Height
		return congest.Exchange(t.toChildren(congest.Wire{Kind: u.downEnd(), C: int64(t.Height)}))
	}
	u.state = upIdle
	return congest.Idle(u.exitRound - u.h.Round())
}

// nodeRound returns a non-root node's next request: this round's up item
// (or end marker), determined as soon as the subtree's next minimum is,
// and its forward of the down wire that arrived last round, both in one
// exchange. With nothing to send it parks: asleep while blocked on a
// lagging child — as a relay order when the rest of the upcast is a pure
// single-child passthrough — or, its upcast over, as a relay order on the
// parent's stream, the whole stage running inside the engine; once the
// end marker is forwarded it idles out to the common exit round.
func (u *upcast) nodeRound() congest.Request {
	t := u.t
	out := t.sendBuf[:0]
	if !u.upDone {
		if w, ok := u.nextUp(); ok {
			out = append(out, congest.Send{Port: t.ParentPort, Wire: w})
		}
	}
	if u.fwdHead < len(u.fwd) {
		w := u.fwd[u.fwdHead]
		u.fwdHead++
		if len(out) == 0 && u.upDone && u.exitRound < 0 && u.fwdHead == len(u.fwd) {
			// Nothing else to say until the stream ends: join it as a
			// relay order that forwards w in its first round.
			u.state = downRelay
			return u.h.RelayStreamFrom(w, t.ParentPort, t.ChildPorts, u.downEnd(), 0)
		}
		for _, p := range t.ChildPorts {
			out = append(out, congest.Send{Port: p, Wire: w})
		}
	}
	t.sendBuf = out
	u.state = upRun
	switch {
	case len(out) > 0:
		return congest.Exchange(out)
	case !u.upDone:
		if u.filter == nil && len(u.kids) == 1 && u.ownNext >= len(u.local) &&
			len(u.kids[0].pending()) == 0 && !u.kids[0].done {
			// Single-child passthrough: nothing of our own left and
			// exactly one stream to merge, so the rest of the upcast is a
			// pure relay. A relay order forwards the child's items — end
			// marker included — to the parent with the same one-round
			// latency the loop gives them, without a Next call per item;
			// a down wire arriving meanwhile hands the inbox back.
			u.state = upRelay
			return congest.RelayStream(t.ChildPorts[0], u.parent[:], u.upEnd(), 0)
		}
		return congest.Sleep()
	case u.exitRound < 0:
		u.state = downRelay
		return congest.RelayStream(t.ParentPort, t.ChildPorts, u.downEnd(), 0)
	}
	u.state = upIdle
	return congest.Idle(u.exitRound - u.h.Round())
}

// nextUp pops the subtree's next accepted item, or, once every stream is
// exhausted, returns the up stream's end marker; ok is false while the
// next minimum is undetermined.
func (u *upcast) nextUp() (w congest.Wire, ok bool) {
	for u.canPop() {
		it := u.popMin()
		if u.filter == nil || u.filter(it) {
			return it, true
		}
	}
	if u.allEnded() {
		u.upDone = true
		return congest.Wire{Kind: u.upEnd(), C: int64(u.maxDepth)}, true
	}
	return congest.Wire{}, false
}

// StartBroadcastList delivers the root's item list to every node: the
// root streams its items down the BFS tree one per round followed by an
// end marker, interior nodes forward with one round of latency, and all
// nodes exit in the same round. Non-root callers pass nil (their argument
// is ignored). Nodes sleep until the stream reaches them; fully parked
// stretches of the pipeline drain as engine-side relay forwards.
//
// StartBroadcastList returns the first request and the driver of the
// broadcast (broadcast, cached on t). t.Broadcasted() is the node's list,
// the root's in order, once the driver is done: the root's own items, or,
// elsewhere, the received stream in a buffer the tree reuses, valid until
// its next broadcast.
func StartBroadcastList(h *congest.Host, t *Tree, items []congest.Wire) (congest.Request, congest.Driver) {
	b := t.broadcast(h)
	if h.N() <= 1 || t.IsRoot() {
		b.items = items
		if h.N() <= 1 {
			return congest.Idle(0), finished{}
		}
		return b.stream(), b
	}
	// The whole stage runs inside the engine: one relay order forwards
	// the parent's stream, end marker included, and completes once it has
	// passed — deviations cannot occur in this primitive, so the drain is
	// pure relay traffic.
	b.state = bcastRelay
	return congest.RelayStream(t.ParentPort, t.ChildPorts, wireBcastEnd, 0), b
}

// Broadcasted returns the node's list of the tree's latest
// StartBroadcastList.
func (t *Tree) Broadcasted() []congest.Wire { return t.bcast.items }

// broadcast states: the request the node is waiting on.
const (
	bcastStream = uint8(iota) // root: one round of the stream
	bcastRelay                // non-root: the relay order on the parent's stream
	bcastIdle                 // the idle-out to the common exit round
)

// broadcast is StartBroadcastList's per-node state machine.
type broadcast struct {
	h     *congest.Host
	t     *Tree
	state uint8
	items []congest.Wire // root: the list; non-root: the received list
	recv  []congest.Wire // non-root: the receive buffer, reused across calls
	sent  int            // root: items sent, the end marker counting last
}

// broadcast returns t's cached StartBroadcastList driver, reset for a
// call.
func (t *Tree) broadcast(h *congest.Host) *broadcast {
	b := t.bcast
	if b == nil {
		b = &broadcast{h: h, t: t}
		t.bcast = b
	}
	b.state, b.sent, b.items = bcastStream, 0, nil
	return b
}

// stream returns the root's next request: the next item, the end marker,
// then the idle-out, by which the wave has reached the deepest node.
func (b *broadcast) stream() congest.Request {
	switch b.sent++; {
	case b.sent <= len(b.items):
		return congest.Exchange(b.t.toChildren(b.items[b.sent-1]))
	case b.sent == len(b.items)+1:
		return congest.Exchange(b.t.toChildren(congest.Wire{Kind: wireBcastEnd}))
	}
	b.state = bcastIdle
	return congest.Idle(b.t.Height - 1)
}

// Next completes the request the node was waiting on and returns the
// next one.
func (b *broadcast) Next(in []congest.Recv) (congest.Request, bool) {
	switch b.state {
	case bcastStream:
		return b.stream(), true
	case bcastRelay:
		stream, _ := b.h.RelaySplit(in)
		b.recv = b.recv[:0]
		for _, rc := range stream {
			if rc.Wire.Kind == wireBcastEnd {
				break
			}
			b.recv = append(b.recv, rc.Wire)
		}
		if len(b.recv) > 0 {
			b.items = b.recv
		}
		// The marker arrived one round before its forward when we have
		// children, in the waking round at a leaf.
		arrived := b.h.Round()
		if len(b.t.ChildPorts) > 0 {
			arrived--
		}
		b.state = bcastIdle
		return congest.Idle(arrived + b.t.Height - b.t.Depth - b.h.Round()), true
	}
	return congest.Request{}, false // bcastIdle: the common exit round
}

// StartMax computes the global maximum of the nodes' values by a
// convergecast up the BFS tree and a synchronized broadcast of the
// result; every node learns the maximum in the same round. Interior nodes
// sleep while their subtrees aggregate; everyone idles out to the common
// exit round. StartMax returns the first request and the driver of the
// aggregate (maxAgg, cached on t); t.Maximum() is the global maximum once
// the driver is done.
func StartMax(h *congest.Host, t *Tree, v int64) (congest.Request, congest.Driver) {
	m := t.maxAgg(h)
	m.best = v
	if h.N() <= 1 {
		return congest.Idle(0), finished{}
	}
	// Leaves detect their (empty) subtree in the first round and send in
	// the second, matching the generic detect-then-send cadence.
	m.state = maxLeaf
	if nc := len(t.ChildPorts); nc > 0 {
		m.state, m.pending = maxUp, nc
		return congest.Sleep(), m
	}
	return congest.Exchange(nil), m
}

// Maximum returns the result of the tree's latest StartMax.
func (t *Tree) Maximum() int64 { return t.agg.best }

// maxAgg states: the request the node is waiting on.
const (
	maxLeaf    = uint8(iota) // a leaf's detection round
	maxUp                    // asleep until every child's partial arrived
	maxSentUp                // the partial's round
	maxDown                  // asleep until the maximum arrives
	maxForward               // the maximum's forward round
	maxIdle                  // the idle-out to the common exit round
)

// maxAgg is StartMax's per-node state machine.
type maxAgg struct {
	h       *congest.Host
	t       *Tree
	state   uint8
	best    int64
	pending int
	exit    int // the common exit round
}

// maxAgg returns t's cached StartMax driver.
func (t *Tree) maxAgg(h *congest.Host) *maxAgg {
	if t.agg == nil {
		t.agg = &maxAgg{h: h, t: t}
	}
	return t.agg
}

// Next completes the request the node was waiting on and returns the
// next one.
func (m *maxAgg) Next(in []congest.Recv) (congest.Request, bool) {
	h, t := m.h, m.t
	switch m.state {
	case maxUp:
		for _, rc := range in {
			if rc.Wire.Kind == wireMaxUp {
				m.best = max(m.best, rc.Wire.C)
				m.pending--
			}
		}
		if m.pending > 0 {
			return congest.Sleep(), true
		}
		fallthrough
	case maxLeaf:
		if t.IsRoot() {
			m.exit = h.Round() + t.Height
			m.state = maxForward
			return congest.Exchange(t.toChildren(congest.Wire{Kind: wireMaxDown, C: m.best})), true
		}
		m.state = maxSentUp
		return congest.Exchange(t.toParent(congest.Wire{Kind: wireMaxUp, C: m.best})), true
	case maxSentUp:
		m.state = maxDown
		return congest.Sleep(), true
	case maxDown:
		got := false
		for _, rc := range in {
			if rc.Wire.Kind == wireMaxDown {
				m.best = rc.Wire.C
				got = true
			}
		}
		if !got {
			return congest.Sleep(), true
		}
		m.exit = h.Round() + t.Height - t.Depth
		if len(t.ChildPorts) > 0 {
			m.state = maxForward
			return congest.Exchange(t.toChildren(congest.Wire{Kind: wireMaxDown, C: m.best})), true
		}
		fallthrough
	case maxForward:
		m.state = maxIdle
		return congest.Idle(m.exit - h.Round()), true
	}
	return congest.Request{}, false // maxIdle: the common exit round
}
