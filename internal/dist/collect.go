package dist

import (
	"slices"

	"steinerforest/internal/congest"
)

// UpcastBroadcast collects the nodes' local items into one globally sorted,
// filtered stream known to every node (the paper's pipelined upcast +
// broadcast, Lemma 4.14): items flow up the BFS tree in ascending order,
// one per tree edge per round, interior nodes merge their children's
// streams with their own and prune them through a speculative replica of
// the filter (Corollary 4.16), and the root's accepted stream is pipelined
// back down. Every node returns the identical accepted slice, in order.
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
// merge" device of Section 4. Both may be nil.
//
// Rounds: O(height + items surviving the interior filters). Nodes sleep
// whenever the pipeline gives them nothing to say: while blocked on a
// lagging child stream, after their subtree's stream is exhausted, and
// (at the root) until the upcast completes. Parked stretches of the down
// stream run as engine-side relay orders, which forward each item without
// resuming the stage.
//
// The pipeline runs as a congest.Driver (upcast) whose state is cached on
// t, so on the continuation scheduler the node's program is switched into
// once, at the exit, and filter and stopAfter run from the scheduler.
//
// The returned stream is the caller's to keep: the tree's next collect
// starts on a fresh buffer.
func UpcastBroadcast(h *congest.Host, t *Tree, local []congest.Wire, cmp Cmp, newFilter func() Filter, stopAfter func(congest.Wire) bool) []congest.Wire {
	h.Drive(StartUpcastBroadcast(h, t, local, cmp, newFilter, stopAfter))
	t.up.kept = true
	return t.Collected()
}

// StartUpcastBroadcast is UpcastBroadcast's start form: it sorts local and
// returns the first request and the driver of the pipeline, which releases
// local, cmp and the filters once it is done. t.Collected() is the
// node's accepted stream from then on. On a single-node network the
// stream is decided here.
//
// The stream lives in a buffer the tree reuses: t.Collected() is valid
// until the tree's next collect, which overwrites it. A caller that keeps
// the stream longer copies it, or uses the blocking UpcastBroadcast.
func StartUpcastBroadcast(h *congest.Host, t *Tree, local []congest.Wire, cmp Cmp, newFilter func() Filter, stopAfter func(congest.Wire) bool) (congest.Request, congest.Driver) {
	slices.SortStableFunc(local, cmp)
	var filter Filter
	if newFilter != nil {
		filter = newFilter()
	}
	u := t.upcast(h)
	if h.N() <= 1 {
		for _, it := range local {
			if filter != nil && !filter(it) {
				continue
			}
			u.result = append(u.result, it)
			if stopAfter != nil && stopAfter(it) {
				break
			}
		}
		return congest.Idle(0), finished{}
	}
	u.local, u.cmp, u.filter, u.stopAfter = local, cmp, filter, stopAfter
	u.state = upRootCollect
	if !t.IsRoot() {
		return u.upLoop(), u
	}
	return congest.Sleep(), u // the root collects asleep between deliveries
}

// Collected returns the node's accepted stream of the tree's latest
// UpcastBroadcast. After a StartUpcastBroadcast it aliases the tree's
// stream buffer, valid until the tree's next collect.
func (t *Tree) Collected() []congest.Wire { return t.up.result }

// upcast states: the request the node is waiting on.
const (
	upRootCollect = uint8(iota) // root: asleep until an upcast delivery
	upRootStream                // root: one round of the downward stream
	upRound                     // an upcast send round, or asleep on a lagging child
	upRelay                     // a single-child passthrough relay order
	downExchange                // a downward forward round, before the marker
	downRelay                   // a relay order on the parent's stream
	downTail                    // a downward forward round after the marker
	upIdle                      // the idle-out to the common exit round
)

// upcast is UpcastBroadcast's per-node state machine: the blocking
// pipeline split at its blocking points. It is built once per tree and
// reset per call; its child and forward queues and its stream buffer keep
// their capacity across calls.
type upcast struct {
	h         *congest.Host
	t         *Tree
	childOf   []int // port -> child index, -1 otherwise
	parent    [1]int
	kids      []childStream  // per child, in ChildPorts order
	fwd       []congest.Wire // interior: forward queue for the broadcast, from fwdHead
	fwdHead   int
	local     []congest.Wire
	cmp       Cmp
	filter    Filter
	stopAfter func(congest.Wire) bool

	state      uint8
	ownNext    int
	result     []congest.Wire // the broadcast stream (root: accepted)
	kept       bool           // a blocking caller kept result: start the next on a fresh buffer
	streamed   int            // root: result items sent down
	fwdEnd     bool
	sawDown    bool
	upDoneSent bool
	exitRound  int
}

// upcast returns t's cached UpcastBroadcast driver, reset for a call.
func (t *Tree) upcast(h *congest.Host) *upcast {
	u := t.up
	nc := len(t.ChildPorts)
	if u == nil {
		u = &upcast{h: h, t: t, childOf: make([]int, h.Degree()), kids: make([]childStream, nc)}
		u.parent[0] = t.ParentPort
		for p := range u.childOf {
			u.childOf[p] = -1
		}
		for i, p := range t.ChildPorts {
			u.childOf[p] = i
		}
		t.up = u
	}
	for i := range u.kids {
		k := &u.kids[i]
		k.items, k.head, k.done = k.items[:0], 0, false
	}
	u.fwd, u.fwdHead = u.fwd[:0], 0
	if u.kept {
		u.result, u.kept = nil, false
	} else {
		u.result = u.result[:0]
	}
	u.ownNext, u.streamed = 0, 0
	u.fwdEnd, u.sawDown, u.upDoneSent = false, false, false
	u.exitRound = -1
	return u
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

// process folds one round's inbox into the upcast and downcast state.
func (u *upcast) process(in []congest.Recv) {
	t, nc := u.t, len(u.t.ChildPorts)
	for _, rc := range in {
		switch rc.Wire.Kind {
		case wireUpDone:
			u.kids[u.childOf[rc.Port]].done = true
		case wireDownEnd:
			u.sawDown = true
			if nc > 0 {
				u.fwdEnd = true
			}
			u.exitRound = u.h.Round() + t.Height - t.Depth
		default:
			if rc.Port == t.ParentPort {
				u.sawDown = true
				u.result = append(u.result, rc.Wire)
				if nc > 0 {
					u.fwd = append(u.fwd, rc.Wire)
				}
			} else {
				k := &u.kids[u.childOf[rc.Port]]
				k.items = append(k.items, rc.Wire)
			}
		}
	}
}

// Next completes the request the node was waiting on and returns the
// next one.
func (u *upcast) Next(in []congest.Recv) (congest.Request, bool) {
	switch u.state {
	case upRootCollect:
		// Collect until the stream is decided, asleep between deliveries
		// (consumption is local, so a round without mail changes nothing).
		u.process(in)
		finalized := false
		for u.canPop() {
			it := u.popMin()
			if u.filter != nil && !u.filter(it) {
				continue
			}
			u.result = append(u.result, it)
			if u.stopAfter != nil && u.stopAfter(it) {
				finalized = true
				break
			}
		}
		if !finalized && !u.allEnded() {
			return congest.Sleep(), true
		}
		u.state = upRootStream
		fallthrough
	case upRootStream:
		// Stream the accepted items down, one per round, then the end
		// marker; the wave reaches the deepest node Height-1 rounds later.
		// Stragglers may still be upcasting (a stopAfter cut): their items
		// arrive during the stream and are ignored.
		switch {
		case u.streamed < len(u.result):
			u.streamed++
			return congest.Exchange(u.t.toChildren(u.result[u.streamed-1])), true
		case u.streamed == len(u.result):
			u.streamed++
			return congest.Exchange(u.t.toChildren(congest.Wire{Kind: wireDownEnd})), true
		}
		u.state = upIdle
		return congest.Idle(u.t.Height - 1), true
	case upRound:
		u.process(in)
		return u.upLoop(), true
	case upRelay:
		stream, last := u.h.RelaySplit(in)
		if k := len(stream); k > 0 && stream[k-1].Wire.Kind == wireUpDone {
			// The engine forwarded the marker: our wireUpDone is sent.
			u.kids[0].done = true
			u.upDoneSent = true
		}
		u.process(last)
		return u.upLoop(), true
	case downExchange:
		u.process(in)
		return u.downLoop(), true
	case downRelay:
		stream, last := u.h.RelaySplit(in)
		u.result = slices.Grow(u.result, len(stream))
		ended := false
		for _, rc := range stream {
			// Already forwarded by the engine: record, don't queue.
			if rc.Wire.Kind == wireDownEnd {
				ended = true
				break
			}
			u.result = append(u.result, rc.Wire)
		}
		if ended {
			// The marker arrived one round before its forward when we
			// have children, in the waking round otherwise; stray mail of
			// the forward round (last) is ignored, as the loop's
			// discarded Exchange result would have been.
			arrived := u.h.Round()
			if len(u.t.ChildPorts) > 0 {
				arrived--
			}
			u.exitRound = arrived + u.t.Height - u.t.Depth
		} else {
			u.process(last)
		}
		return u.downLoop(), true
	case downTail:
		return u.downLoop(), true
	}
	// upIdle: the common exit round.
	u.local, u.cmp, u.filter, u.stopAfter = nil, nil, nil, nil
	return congest.Request{}, false
}

// upLoop returns the next request of a non-root node's upcast: one
// accepted item (or the end marker) per round, as soon as the subtree's
// next minimum is determined; asleep while blocked on a lagging child.
// The upcast ends when our stream is exhausted or the broadcast already
// started (the root finalized early on a stopAfter cut).
func (u *upcast) upLoop() congest.Request {
	if u.upDoneSent || u.sawDown {
		return u.downLoop()
	}
	u.state = upRound
	for u.canPop() {
		it := u.popMin()
		if u.filter == nil || u.filter(it) {
			return congest.Exchange(u.t.toParent(it))
		}
	}
	if u.allEnded() {
		u.upDoneSent = true
		return congest.Exchange(u.t.toParent(congest.Wire{Kind: wireUpDone}))
	}
	if u.filter == nil && len(u.kids) == 1 && u.ownNext >= len(u.local) &&
		len(u.kids[0].pending()) == 0 && !u.kids[0].done {
		// Single-child passthrough: nothing of our own left and exactly
		// one stream to merge, so the rest of the upcast is a pure relay.
		// A relay order forwards the child's items — end marker included
		// — to the parent with the same one-round latency the loop gives
		// them, without a Next call per item. Only a deviating round (the
		// broadcast starting early on a stopAfter cut) hands an inbox back
		// before the marker's forward.
		u.state = upRelay
		return congest.RelayStream(u.t.ChildPorts[0], u.parent[:], wireUpDone)
	}
	return congest.Sleep()
}

// downLoop returns the next request of a non-root node's downcast: wait
// for the broadcast to reach us and relay it, end marker included, toward
// the children, then idle to the common exit round. With nothing queued
// the whole pipeline stage runs inside the engine: a relay order forwards
// the parent's stream, completing once, after the marker's own forward.
// Only a straggler's upcast item (possible after a stopAfter cut)
// completes it early, whose round we handle here before parking again.
func (u *upcast) downLoop() congest.Request {
	if u.exitRound < 0 {
		if u.fwdHead < len(u.fwd) {
			u.fwdHead++
			u.state = downExchange
			return congest.Exchange(u.t.toChildren(u.fwd[u.fwdHead-1]))
		}
		u.state = downRelay
		return congest.RelayStream(u.t.ParentPort, u.t.ChildPorts, wireDownEnd)
	}
	u.state = downTail
	switch {
	case u.fwdHead < len(u.fwd):
		u.fwdHead++
		return congest.Exchange(u.t.toChildren(u.fwd[u.fwdHead-1]))
	case u.fwdEnd:
		u.fwdEnd = false
		return congest.Exchange(u.t.toChildren(congest.Wire{Kind: wireDownEnd}))
	}
	u.state = upIdle
	return congest.Idle(u.exitRound - u.h.Round())
}

// BroadcastList delivers the root's item list to every node: the root
// streams its items down the BFS tree one per round followed by an end
// marker, interior nodes forward with one round of latency, and all nodes
// exit in the same round. Non-root callers pass nil (their argument is
// ignored); every node returns the root's list in order. Nodes sleep until
// the stream reaches them; fully parked stretches of the pipeline drain
// as engine-side relay forwards. Like UpcastBroadcast it runs as a
// congest.Driver (broadcast) cached on t.
//
// The returned list is the caller's to keep: the tree's next broadcast
// starts on a fresh buffer.
func BroadcastList(h *congest.Host, t *Tree, items []congest.Wire) []congest.Wire {
	h.Drive(StartBroadcastList(h, t, items))
	t.bcast.kept = true
	return t.Broadcasted()
}

// StartBroadcastList is BroadcastList's start form: it returns the first
// request and the driver of the broadcast. t.Broadcasted() is the node's
// list once the driver is done: the root's own items, or, elsewhere, the
// received stream in a buffer the tree reuses, valid until its next
// broadcast.
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
	return congest.RelayStream(t.ParentPort, t.ChildPorts, wireBcastEnd), b
}

// Broadcasted returns the node's list of the tree's latest BroadcastList.
func (t *Tree) Broadcasted() []congest.Wire { return t.bcast.items }

// broadcast states: the request the node is waiting on.
const (
	bcastStream = uint8(iota) // root: one round of the stream
	bcastRelay                // non-root: the relay order on the parent's stream
	bcastIdle                 // the idle-out to the common exit round
)

// broadcast is BroadcastList's per-node state machine.
type broadcast struct {
	h     *congest.Host
	t     *Tree
	state uint8
	items []congest.Wire // root: the list; non-root: the received list
	recv  []congest.Wire // non-root: the receive buffer, reused across calls
	kept  bool           // a blocking caller kept recv: start the next on a fresh buffer
	sent  int            // root: items sent, the end marker counting last
}

// broadcast returns t's cached BroadcastList driver, reset for a call.
func (t *Tree) broadcast(h *congest.Host) *broadcast {
	b := t.bcast
	if b == nil {
		b = &broadcast{h: h, t: t}
		t.bcast = b
	}
	if b.kept {
		b.recv, b.kept = nil, false
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

// Max computes the global maximum of the nodes' values by a convergecast up
// the BFS tree and a synchronized broadcast of the result; every node
// returns the maximum in the same round. Interior nodes sleep while their
// subtrees aggregate; everyone idles out to the common exit round. It runs
// as a congest.Driver (maxAgg) cached on t.
func Max(h *congest.Host, t *Tree, v int64) int64 {
	h.Drive(StartMax(h, t, v))
	return t.Maximum()
}

// StartMax is Max's start form: it returns the first request and the
// driver of the aggregate. t.Maximum() is the global maximum once the
// driver is done.
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

// Maximum returns the result of the tree's latest Max.
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

// maxAgg is Max's per-node state machine.
type maxAgg struct {
	h       *congest.Host
	t       *Tree
	state   uint8
	best    int64
	pending int
	exit    int // the common exit round
}

// maxAgg returns t's cached Max driver.
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
