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
// all nodes in the same round. Communication rounds alternate between
// payload rounds (even) and control rounds (odd): on control rounds, a
// pipelined convergecast of per-round quietness bits flows up the BFS tree
// (a node at depth d reports payload round rr at control slot
// rr + height - d, so the root sees a consistent global snapshot of every
// payload round), and once the root observes a globally quiet round it
// broadcasts a synchronized exit.
//
// Quietness reporting is edge-triggered: the conceptual per-slot bit
// stream between a node and its parent is transmitted as its transitions
// only — wireQuiet when the subtree's bit turns on, wireQuietOff when it
// turns off — and the parent latches the current value per child. The
// latched counts reproduce the level-triggered per-slot counts exactly, so
// the detection and exit slots (hence Stats.Rounds) are unchanged, while a
// quiet subtree stops paying one message per control slot: in a steady
// state, control traffic is zero.
//
// The edge-triggering is also what lets nodes park: between transitions a
// node has nothing to send. A payload-quiet node computes the next control
// slot it must drive assuming no mail arrives — its next bit transition
// as its reporting window drains, or, at the root, the detection slot —
// and sleeps until that slot's payload round, instead of stepping through
// the empty slots before it. Mail (payload, a child's transition, the exit
// wave) wakes it early; it marks the parked slots quiet and plans again.
// With no due slot at all it sleeps unboundedly: a quiet subtree whose
// latest transition is on the wire costs nothing until something changes,
// and a root with some child latch off waits for the arrival that
// completes the set, which is also the wake that lets it detect.
//
// The slot loop is a congest.Driver — a four-state machine (parked,
// payload, control, idle) whose Next returns each slot's request.
// Rounds, messages and step calls are those of the plain Exchange loop
// under every engine configuration. The driver and its buffers are cached
// on t, so repeated calls on one tree allocate nothing of their own.
//
// The step's round counter counts payload rounds only. StartQuiet returns
// the first request and the driver of the quiescence loop, which releases
// step once it is done. On a single-node network the loop runs to
// completion here.
func StartQuiet(h *congest.Host, t *Tree, step Step) (congest.Request, congest.Driver) {
	if h.N() <= 1 {
		for p := 0; ; p++ {
			out, active := step(p, nil)
			if len(out) > 0 {
				panic("dist: StartQuiet step sent on an edgeless graph")
			}
			if !active {
				return congest.Idle(0), finished{}
			}
		}
	}
	q := t.quietDriver(h)
	q.step = step
	q.out, q.active = step(0, nil)
	return q.slot(), q
}

// quietDriver states: the request the node is waiting on.
const (
	qParked  = uint8(iota) // a park through quiet slots
	qPayload               // slot s's payload round
	qControl               // slot s's control round
	qIdle                  // the idle-out to the common exit round
)

// quietDriver is StartQuiet's per-node state machine: the slot loop of its
// defining Exchange loop, split at its four round barriers. The fields
// up to ctrlBuf depend on the tree only and are reused by every call; the
// rest is reset per call.
type quietDriver struct {
	h    *congest.Host
	t    *Tree
	step Step

	lag     int             // height - depth: the reporting delay of own bits
	d       int             // the delay nextDue scans: lag, or height-1 at the root
	hist    []bool          // ownQuiet for payload slots s-lag..s
	chq     []bool          // per port: the child's latched quiet bit
	ctrl    []congest.Send  // the control round's sends
	ctrlBuf [4]congest.Send // ctrl's initial backing

	state  uint8
	r0     int
	s      int
	out    []congest.Send // step(s, ...)'s sends and activity
	active bool
	quiet  bool // slot s's own quiet bit
	count  int  // = number of set latches
	sent   bool // the bit our parent currently latches for us
	// exitAt is the slot this node returns at, set once the exit wave
	// arrives (or, at the root, on detection); from then on the node
	// reports nothing.
	sendExitAt, exitAt int
}

// quietDriver returns t's cached StartQuiet driver, reset for a call
// starting now.
func (t *Tree) quietDriver(h *congest.Host) *quietDriver {
	q := t.quiet
	if q == nil {
		q = &quietDriver{h: h, t: t, lag: t.Height - t.Depth}
		bits := make([]bool, q.lag+1+h.Degree())
		q.hist, q.chq = bits[:q.lag+1], bits[q.lag+1:]
		q.ctrl = q.ctrlBuf[:0]
		q.d = q.lag
		if t.IsRoot() {
			q.d = t.Height - 1 // depth-1 children report payload slot t-height+1
		}
		t.quiet = q
	} else {
		clear(q.hist)
		clear(q.chq)
	}
	q.r0, q.s = h.Round(), 0
	q.count, q.sent = 0, false
	q.sendExitAt, q.exitAt = -1, -1
	return q
}

// Next completes the request the node was waiting on and returns the
// next one.
func (q *quietDriver) Next(in []congest.Recv) (congest.Request, bool) {
	switch q.state {
	case qParked:
		return q.woke(in)
	case qPayload:
		return q.payload(in), true
	case qControl:
		if q.control(in) {
			return q.done()
		}
		if q.exitAt >= 0 && q.s >= q.sendExitAt && len(q.out) == 0 && !q.active {
			// The exit wave is forwarded and the network is globally
			// quiet: the remaining slots are pure waiting for the deepest
			// nodes to be reached. Idle straight to the common exit round
			// — stray child transitions arriving meanwhile are discarded
			// unread, which is what the loop would have done with them.
			q.state = qIdle
			return congest.Idle(q.r0 + 2*q.exitAt + 2 - q.h.Round()), true
		}
		q.s++
		return q.slot(), true
	}
	return q.done() // qIdle: the common exit round
}

// done ends the call, releasing the step's captures.
func (q *quietDriver) done() (congest.Request, bool) {
	q.step, q.out = nil, nil
	return congest.Request{}, false
}

// slot opens payload slot s, whose step output is already in out/active,
// and returns the request for its payload round.
//
// Steady state: a payload-quiet node parks until the next control round
// it must drive — its next bit transition, or the root's detection — or
// until mail (payload, a child's transition, the exit wave) changes that
// schedule. Every slot in between would be an empty payload round and a
// silent control round, so sleeping through them is exactly the loop's
// behavior.
func (q *quietDriver) slot() congest.Request {
	q.quiet = len(q.out) == 0 && !q.active
	q.hist[q.s%(q.lag+1)] = q.quiet
	due := q.s
	if q.quiet && q.exitAt < 0 {
		due = q.nextDue(q.s)
	}
	if due != q.s {
		q.state = qParked
		if due < 0 {
			return congest.Sleep()
		}
		return congest.SleepUntil(q.r0 + 2*due + 1)
	}
	q.state = qPayload
	if len(q.out) > 0 {
		return congest.Exchange(q.out)
	}
	return congest.SleepUntil(q.h.Round() + 1)
}

// woke resumes a parked node in the round that ended its park.
func (q *quietDriver) woke(in []congest.Recv) (congest.Request, bool) {
	rel := q.h.Round() - q.r0 - 1 // the deviating round, relative
	sw := rel / 2
	// Parked slots were payload-silent: mark them quiet, keeping the
	// surviving older window entries.
	for j := q.s + 1; j <= sw && j <= q.s+q.lag+1; j++ {
		q.hist[j%(q.lag+1)] = true
	}
	q.s = sw
	if rel%2 == 0 {
		// Woken in the payload round of slot s, by payload mail or at the
		// deadline (in == nil): in is payload input.
		return q.payload(in), true
	}
	// Woken in the control round of slot s (a child's transition, or the
	// exit wave): s precedes our due slot, so nothing of ours was due;
	// latch the arrivals, which take effect from slot s+1. The node parked
	// quiet, so out/active still say so.
	if q.control(in) {
		return q.done()
	}
	q.s++
	return q.slot(), true
}

// payload consumes slot s's payload inbox — stepping unless the Step
// contract says a quiet node stays quiet — and returns the request for
// slot s's control round: our bit's transition, if any, and the exit wave
// when it is due.
func (q *quietDriver) payload(pin []congest.Recv) congest.Request {
	if q.quiet && len(pin) == 0 {
		q.out, q.active = nil, false
	} else {
		q.out, q.active = q.step(q.s+1, pin)
	}
	q.state = qControl
	q.ctrl = q.ctrl[:0]
	if rr := q.s - q.lag; !q.t.IsRoot() && q.exitAt < 0 && rr >= 0 {
		if bit := q.hist[rr%(q.lag+1)] && q.count == len(q.t.ChildPorts); bit != q.sent {
			q.sent = bit
			k := wireQuietOff
			if bit {
				k = wireQuiet
			}
			q.ctrl = append(q.ctrl, congest.Send{Port: q.t.ParentPort, Wire: congest.Wire{Kind: k}})
		}
	}
	if q.s == q.sendExitAt {
		for _, p := range q.t.ChildPorts {
			q.ctrl = append(q.ctrl, congest.Send{Port: p, Wire: congest.Wire{Kind: wireExit}})
		}
	}
	if len(q.ctrl) > 0 {
		return congest.Exchange(q.ctrl)
	}
	return congest.SleepUntil(q.h.Round() + 1)
}

// control latches slot s's control inbox — child transitions update the
// per-child bits, the exit wave schedules the exit — runs the root's
// detection, and reports whether the node returns now.
func (q *quietDriver) control(in []congest.Recv) bool {
	for _, rc := range in {
		switch rc.Wire.Kind {
		case wireQuiet:
			if !q.chq[rc.Port] {
				q.chq[rc.Port] = true
				q.count++
			}
		case wireQuietOff:
			if q.chq[rc.Port] {
				q.chq[rc.Port] = false
				q.count--
			}
		case wireExit:
			q.exitAt, q.sendExitAt = q.s+q.lag, q.s+1
		}
	}
	if q.t.IsRoot() && q.exitAt < 0 {
		// Children (depth 1) report payload round s-(height-1) at slot s.
		if rrc := q.s - q.d; rrc >= 0 && q.count == len(q.t.ChildPorts) && q.hist[rrc%(q.lag+1)] {
			q.sendExitAt, q.exitAt = q.s+1, q.s+q.t.Height
		}
	}
	return q.exitAt >= 0 && q.s >= q.exitAt
}

// nextDue returns the first slot t >= s whose control round this node
// must drive, assuming no mail arrives and every payload slot after s is
// quiet, or -1 if there is none: for a non-root node its next bit
// transition, for the root its detection slot. Control slot t reports
// payload slot t-d, and nextDue is only asked at a quiet slot s, so from
// slot s+d on the reported bit is constant and the scan is bounded.
func (q *quietDriver) nextDue(s int) int {
	full, root := q.count == len(q.t.ChildPorts), q.t.IsRoot()
	for t := max(s, q.d); t <= s+q.d; t++ {
		bit := full && q.hist[(t-q.d)%(q.lag+1)]
		if root && bit || !root && bit != q.sent {
			return t
		}
	}
	return -1
}
