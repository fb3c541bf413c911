package dist

import "steinerforest/internal/congest"

// Step is one round of a StartQuiet protocol: it receives the payload
// messages delivered last round and returns this round's sends plus an
// activity flag. A step that returns no sends and reports inactive must
// stay that way under empty input (no spontaneous reactivation) — receipt
// of a message may reactivate it. The driver relies on this contract to
// skip step calls (and park the node) through quiet stretches.
type Step func(round int, in []congest.Recv) ([]congest.Send, bool)

// StartQuiet drives step until the whole network is quiescent — every node
// inactive with nothing to send and no payload in flight — and returns on
// all nodes in the same round. Each slot is one communication round: the
// step's payload and, in the same round, a pipelined convergecast of
// per-slot quietness bits up the BFS tree (a node at depth d reports
// payload slot rr at slot rr + height - d, so the root sees a consistent
// global snapshot of every payload slot); once the root observes a
// globally quiet slot it broadcasts a synchronized exit. A P-slot run
// therefore takes about P + 2·height rounds, and L more when the exit
// wave carries a root list of L items (StartQuietList).
//
// Quietness reporting is edge-triggered: the conceptual per-slot bit
// stream between a node and its parent is transmitted as its transitions
// only — quiet when the subtree's bit turns on, quiet-off when it turns
// off — and the parent latches the current value per child. The latched
// counts reproduce the level-triggered per-slot counts exactly, while a
// quiet subtree pays nothing for the slots in which its bit holds.
//
// Transitions and the exit wave ride on their port's payload message as
// its Wire.Ctl code (congest.CtlBits more bits, no extra message), or go
// as a control-only wire on a port without one. The step sees its inbox
// with the codes stripped and the control-only wires dropped.
//
// The edge-triggering is also what lets nodes park: between transitions a
// node has nothing to send. A payload-quiet node computes the next slot
// it must act in assuming no mail arrives — its next bit transition as
// its reporting window drains, or, at the root, the slot after its
// detection — and sleeps until that slot starts, instead of stepping
// through the empty slots before it. Mail (payload, a child's transition,
// the exit wave) wakes it early; it marks the parked slots quiet and plans
// again. With no due slot at all it sleeps unboundedly: a quiet subtree
// whose latest transition is on the wire costs nothing until something
// changes, and a root with some child latch off waits for the arrival
// that completes the set, which is also the wake that lets it detect.
//
// The slot loop is a congest.Driver whose Next ends the slot whose round
// just completed (one resume per slot the node is awake in) and returns
// the next slot's request. Rounds, messages and step calls are those of
// the plain Exchange loop under every engine configuration. The driver is
// cached on t and releases step once it is done. The step's round counter
// counts slots. StartQuiet returns the first request and the driver; on a
// single-node network the loop runs to completion here.
func StartQuiet(h *congest.Host, t *Tree, step Step) (congest.Request, congest.Driver) {
	return StartQuietList(h, t, step, nil)
}

// StartQuietList is StartQuiet whose exit wave also delivers a list from
// the root: a protocol whose step gathers items at the root while it runs
// (a census riding the payload rounds) hands them to every node without a
// broadcast of its own. Every node passes a non-nil rootList; the root
// reads *rootList once, at detection, and the other nodes ignore theirs.
//
// A list of L >= 1 items replaces the exit wave's control-only wires: the
// root sends item 0 with the exit code as its Wire.Ctl and items 1..L-1
// in the following slots, the last of them carrying the quiet code
// (ctlQuiet, which never travels down otherwise) as the list's end mark;
// a one-item list, whose item carries the exit code, is followed by an
// end marker wire (wireQuiet) instead. Every other node forwards the
// stream with one round of latency, as an engine-side relay order from
// the first item on (Host.RelayStreamFrom) that ends on either mark. All
// nodes return in the same round, detection + height + max(L-1, 1)
// slots, holding the list: a run takes about P + 2·height + L rounds. An
// empty list leaves the exit wave, and so the run's Stats, exactly
// StartQuiet's. Items are payload wires of a registered kind whose width
// leaves room for a control code.
//
// t.QuietList() is the node's copy of the list once the driver is done.
// It lives in the tree's stream buffer, which the list overwrites, so
// Collected's stream is gone once StartQuietList returns; a plain
// StartQuiet leaves the buffer alone.
func StartQuietList(h *congest.Host, t *Tree, step Step, rootList *[]congest.Wire) (congest.Request, congest.Driver) {
	if h.N() <= 1 {
		for p := 0; ; p++ {
			out, active := step(p, nil)
			if len(out) > 0 {
				panic("dist: StartQuiet step sent on an edgeless graph")
			}
			if !active {
				if rootList != nil {
					t.stream = append(t.stream[:0], *rootList...)
				}
				return congest.Idle(0), finished{}
			}
		}
	}
	q := t.quietDriver(h)
	q.step, q.list = step, rootList
	q.out, q.active = step(0, nil)
	return q.slot(), q
}

// QuietList returns the node's exit list of the tree's latest
// StartQuietList, valid until the tree's next collect or exit list.
func (t *Tree) QuietList() []congest.Wire { return t.stream }

// The quiescence loop's control codes, carried as a payload's Wire.Ctl;
// ctlKind maps each to the control-only wire kind it travels as on a port
// without payload.
const (
	ctlQuiet    = uint8(1 + iota) // the subtree's quiet bit turned on
	ctlQuietOff                   // the subtree's quiet bit turned off
	ctlExit                       // the synchronized exit wave
)

var ctlKind = [...]uint16{ctlQuiet: wireQuiet, ctlQuietOff: wireQuietOff, ctlExit: wireExit}

// quietDriver is StartQuiet's per-node state machine. The fields up to
// buf0 are reused by every call; the rest is reset per call.
type quietDriver struct {
	h    *congest.Host
	t    *Tree
	step Step

	lag  int             // height - depth: the reporting delay of own bits
	d    int             // the delay nextDue scans: lag, or height-1 at the root
	hist []bool          // ownQuiet for payload slots s-lag..s
	chq  []bool          // per port: the child's latched quiet bit
	buf  []congest.Send  // a slot's payload with its control codes merged in
	buf0 [4]congest.Send // buf's initial backing

	r0     int
	s      int            // the slot opened last
	out    []congest.Send // step(s, ...)'s sends and activity
	active bool
	quiet  bool // slot s's own quiet bit
	idle   bool // idling out to the common exit round
	sent   bool // the bit our parent currently latches for us
	// The exit list (StartQuietList): the root streams it from slot
	// sendExitAt on; a non-root node relays it once item 0, which heads
	// t.stream, arrived.
	streaming, relaying bool
	count               int // = number of set latches
	// exitAt is the slot this node returns at, set once the exit wave
	// arrives (or, at the root, on detection); from then on the node
	// reports nothing.
	sendExitAt, exitAt int
	list               *[]congest.Wire // the root's exit list; nil without one
}

// quietDriver returns t's cached StartQuiet driver, reset for a call
// starting now.
func (t *Tree) quietDriver(h *congest.Host) *quietDriver {
	q := t.quiet
	if q == nil {
		q = &quietDriver{h: h, t: t, lag: t.Height - t.Depth}
		bits := make([]bool, q.lag+1+h.Degree())
		q.hist, q.chq = bits[:q.lag+1], bits[q.lag+1:]
		q.buf = q.buf0[:0]
		q.d = q.lag
		if t.IsRoot() {
			q.d = t.Height - 1 // depth-1 children report payload slot t-height+1
		}
		t.quiet = q
	} else {
		clear(q.hist)
		clear(q.chq)
	}
	q.r0, q.s, q.idle = h.Round(), 0, false
	q.count, q.sent = 0, false
	q.sendExitAt, q.exitAt = -1, -1
	q.streaming, q.relaying = false, false
	return q
}

// Next ends the slot whose round just completed — slots the node parked
// through were payload-silent — and returns the next slot's request.
func (q *quietDriver) Next(in []congest.Recv) (congest.Request, bool) {
	switch {
	case q.idle:
		return q.done() // the common exit round
	case q.streaming:
		q.s++
		return q.stream(), true
	case q.relaying:
		return q.relayed(in)
	}
	se := q.h.Round() - q.r0 - 1
	// Parked slots were payload-silent: mark them quiet.
	for j := q.s + 1; j <= se && j <= q.s+q.lag+1; j++ {
		q.hist[j%(q.lag+1)] = true
	}
	q.s = se
	// Latch the control, step on the payload unless the Step contract
	// says a quiet node stays quiet, then run the root's detection.
	pin := q.control(in)
	if q.relaying {
		// The exit list's item 0: the network is quiet, so the step has
		// nothing to do; forward it and relay the rest of the list.
		first := q.t.stream[0]
		first.Ctl = ctlExit
		return q.h.RelayStreamFrom(first, q.t.ParentPort, q.t.ChildPorts, wireQuiet, ctlQuiet), true
	}
	if q.quiet && len(pin) == 0 {
		q.out, q.active = nil, false
	} else {
		q.out, q.active = q.step(q.s+1, pin)
	}
	if q.t.IsRoot() && q.exitAt < 0 {
		// Children (depth 1) report payload slot s-(height-1) in slot s.
		if rrc := q.s - q.d; rrc >= 0 && q.count == len(q.t.ChildPorts) && q.hist[rrc%(q.lag+1)] {
			q.sendExitAt, q.exitAt = q.s+1, q.s+q.t.Height
			if q.list != nil {
				if q.t.stream = append(q.t.stream[:0], *q.list...); len(q.t.stream) > 0 {
					// The network is quiet: stream the list as the exit
					// wave, then idle out with it.
					q.exitAt += listSlots(len(q.t.stream))
					q.streaming = true
					q.s++
					return q.stream(), true
				}
			}
		}
	}
	if q.exitAt >= 0 && q.s >= q.exitAt {
		return q.done()
	}
	if q.exitAt >= 0 && (q.s >= q.sendExitAt || len(q.t.ChildPorts) == 0) && len(q.out) == 0 && !q.active {
		// The exit wave is forwarded (a leaf has none to forward) and the
		// network is globally quiet: the remaining slots are pure waiting
		// for the deepest nodes to be reached. Idle straight to the common
		// exit round — stray child transitions arriving meanwhile are
		// discarded unread, which is what the loop would have done with
		// them.
		q.idle = true
		return congest.Idle(q.r0 + q.exitAt + 1 - q.h.Round()), true
	}
	q.s++
	return q.slot(), true
}

// done ends the call, releasing the step's captures.
func (q *quietDriver) done() (congest.Request, bool) {
	q.step, q.out, q.list = nil, nil, nil
	return congest.Request{}, false
}

// listSlots is the number of slots an exit list of L >= 1 items adds to
// the exit wave: the last item carries the end mark, except in a
// one-item list, whose item carries the exit code and is followed by an
// end marker wire.
func listSlots(L int) int { return max(L-1, 1) }

// stream returns the root's exit-list request of slot s: item 0 with the
// exit code, the other items, the last one marked as the end (or, after a
// lone item, the end marker), then the idle-out to the common exit
// round, by which the end mark has reached the deepest node.
func (q *quietDriver) stream() congest.Request {
	items := q.t.stream
	switch k := q.s - q.sendExitAt; {
	case k < len(items):
		w := items[k]
		switch k {
		case 0:
			w.Ctl = ctlExit
		case len(items) - 1:
			w.Ctl = ctlQuiet
		}
		return congest.Exchange(q.t.toChildren(w))
	case k == 1:
		return congest.Exchange(q.t.toChildren(congest.Wire{Kind: wireQuiet}))
	}
	q.streaming, q.idle = false, true
	return congest.Idle(q.t.Height - 1)
}

// relayed ends a non-root node's relay order on the exit list: the
// stream, end mark last, is complete. The mark arrived one round before
// its forward when the node has children, in the waking round at a leaf;
// the node idles out to the common exit round, height - depth rounds
// after the arrival. Nothing but the list reaches a node once the
// network is quiet, so a deviating inbox is a broken loop.
func (q *quietDriver) relayed(in []congest.Recv) (congest.Request, bool) {
	stream, _ := q.h.RelaySplit(in)
	k := len(stream)
	if k == 0 || stream[k-1].Wire.Kind != wireQuiet && stream[k-1].Wire.Ctl != ctlQuiet {
		panic("dist: mail beside the quiescence loop's exit list")
	}
	if stream[k-1].Wire.Kind == wireQuiet {
		stream = stream[:k-1]
	}
	for _, rc := range stream {
		rc.Wire.Ctl = 0
		q.t.stream = append(q.t.stream, rc.Wire)
	}
	arrived := q.h.Round()
	if len(q.t.ChildPorts) > 0 {
		arrived--
	}
	q.relaying, q.idle = false, true
	return congest.Idle(arrived + q.t.Height - q.t.Depth - q.h.Round()), true
}

// slot opens slot s, whose step output is already in out/active, and
// returns the request for its round: the payload with this slot's control
// merged in, a silent round, or, for a payload-quiet node with nothing
// due, a park until the slot nextDue names or until mail arrives. Every
// slot in between would be a silent round, so sleeping through them is
// exactly the loop's behavior.
func (q *quietDriver) slot() congest.Request {
	q.quiet = len(q.out) == 0 && !q.active
	q.hist[q.s%(q.lag+1)] = q.quiet
	if q.quiet && q.exitAt < 0 {
		if due := q.nextDue(q.s); due != q.s {
			if due < 0 {
				return congest.Sleep()
			}
			return congest.SleepUntil(q.r0 + due)
		}
	}
	if out := q.sends(); len(out) > 0 {
		return congest.Exchange(out)
	}
	return congest.SleepUntil(q.h.Round() + 1)
}

// sends returns slot s's sends: the step's payload plus our bit's
// transition for payload slot s-lag, if any, and the exit wave when it is
// due, each riding on the payload of its port when there is one.
func (q *quietDriver) sends() []congest.Send {
	var up uint8
	if rr := q.s - q.lag; !q.t.IsRoot() && q.exitAt < 0 && rr >= 0 {
		if bit := q.hist[rr%(q.lag+1)] && q.count == len(q.t.ChildPorts); bit != q.sent {
			q.sent = bit
			up = ctlQuietOff
			if bit {
				up = ctlQuiet
			}
		}
	}
	exit := q.s == q.sendExitAt
	if up == 0 && !exit {
		return q.out
	}
	q.buf = append(q.buf[:0], q.out...)
	if up != 0 {
		q.attach(q.t.ParentPort, up)
	}
	if exit {
		for _, p := range q.t.ChildPorts {
			q.attach(p, ctlExit)
		}
	}
	return q.buf
}

// attach puts control code c on port's payload in buf, or appends a
// control-only wire when the port carries none.
func (q *quietDriver) attach(port int, c uint8) {
	for i := range q.buf {
		if q.buf[i].Port == port {
			q.buf[i].Wire.Ctl = c
			return
		}
	}
	q.buf = append(q.buf, congest.Send{Port: port, Wire: congest.Wire{Kind: ctlKind[c]}})
}

// control latches slot s's control arrivals — child transitions update the
// per-child bits, the exit wave schedules the exit — and returns the
// payload messages of in, stripped of their codes, in place.
func (q *quietDriver) control(in []congest.Recv) []congest.Recv {
	pin := in[:0]
	for _, rc := range in {
		k := rc.Wire.Kind
		if c := rc.Wire.Ctl; c != 0 {
			k, rc.Wire.Ctl = ctlKind[c], 0
			if k == wireExit && q.list != nil {
				// An exit list's item 0, not payload.
				q.t.stream = append(q.t.stream[:0], rc.Wire)
				q.relaying = true
				continue
			}
			pin = append(pin, rc)
		} else if k != wireQuiet && k != wireQuietOff && k != wireExit {
			pin = append(pin, rc)
		}
		switch on := k == wireQuiet; k {
		case wireQuiet, wireQuietOff:
			if q.chq[rc.Port] != on {
				q.chq[rc.Port] = on
				if on {
					q.count++
				} else {
					q.count--
				}
			}
		case wireExit:
			q.exitAt, q.sendExitAt = q.s+q.lag, q.s+1
			if q.list != nil {
				q.t.stream = q.t.stream[:0] // an empty exit list
			}
		}
	}
	return pin
}

// nextDue returns the first slot u >= s this node must act in, assuming
// no mail arrives and every payload slot after s is quiet, or -1 if there
// is none: for a non-root node the slot that carries its next bit
// transition, for the root the slot after its detection slot, whose
// start is the end of the detection slot. Slot t reports payload slot
// t-d, and nextDue is only asked at a quiet slot s, so from slot s+d on
// the reported bit is constant and the scan is bounded.
func (q *quietDriver) nextDue(s int) int {
	full, root := q.count == len(q.t.ChildPorts), q.t.IsRoot()
	for t := max(s, q.d); t <= s+q.d; t++ {
		bit := full && q.hist[(t-q.d)%(q.lag+1)]
		if root && bit {
			return t + 1
		}
		if !root && bit != q.sent {
			return t
		}
	}
	return -1
}
