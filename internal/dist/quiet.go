package dist

import "steinerforest/internal/congest"

// Step is one round of a RunQuiet protocol: it receives the payload
// messages delivered last round and returns this round's sends plus an
// activity flag. A step that returns no sends and reports inactive must
// stay that way under empty input (no spontaneous reactivation) — receipt
// of a message may reactivate it. The driver relies on this contract to
// skip step calls (and park the node) through quiet stretches.
type Step func(round int, in []congest.Recv) ([]congest.Send, bool)

// RunQuiet drives step until the whole network is quiescent — every node
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
// The step's round counter counts payload rounds only.
func RunQuiet(h *congest.Host, t *Tree, step Step) {
	if h.N() <= 1 {
		for p := 0; ; p++ {
			out, active := step(p, nil)
			if len(out) > 0 {
				panic("dist: RunQuiet step sent on an edgeless graph")
			}
			if !active {
				return
			}
		}
	}

	height, depth := t.Height, t.Depth
	root := t.IsRoot()
	nc := len(t.ChildPorts)
	lag := height - depth
	hist := make([]bool, lag+1) // ownQuiet for payload slots s-lag..s
	childOf := make([]int, h.Degree())
	for p := range childOf {
		childOf[p] = -1
	}
	for i, p := range t.ChildPorts {
		childOf[p] = i
	}
	chq := make([]bool, nc) // per-child latched quiet bit
	count := 0              // = number of set latches
	sent := false           // the bit our parent currently latches for us
	// exitAt is the slot this node returns at, set once the exit wave
	// arrives (or, at the root, on detection); from then on the node
	// reports nothing.
	sendExitAt, exitAt := -1, -1
	sawExit := false
	r0 := h.Round()
	var ctrl []congest.Send

	// fold latches a control inbox: child transitions update the per-child
	// bits, the exit wave is flagged for the caller (who knows the slot).
	fold := func(in []congest.Recv) {
		for _, rc := range in {
			switch rc.Wire.Kind {
			case wireQuiet:
				if ci := childOf[rc.Port]; !chq[ci] {
					chq[ci] = true
					count++
				}
			case wireQuietOff:
				if ci := childOf[rc.Port]; chq[ci] {
					chq[ci] = false
					count--
				}
			case wireExit:
				sawExit = true
			}
		}
	}

	// nextDue returns the first slot t >= s whose control round this node
	// must drive, assuming no mail arrives and every payload slot after s
	// is quiet, or -1 if there is none: for a non-root node its next bit
	// transition, for the root its detection slot. Control slot t reports
	// payload slot t-d, and nextDue is only asked at a quiet slot s, so
	// from slot s+d on the reported bit is constant and the scan is
	// bounded.
	d := lag
	if root {
		d = height - 1 // depth-1 children report payload slot t-height+1
	}
	nextDue := func(s int) int {
		full := count == nc
		for t := max(s, d); t <= s+d; t++ {
			bit := full && hist[(t-d)%(lag+1)]
			if root && bit || !root && bit != sent {
				return t
			}
		}
		return -1
	}

	out, active := step(0, nil)
	for s := 0; ; s++ {
		// Payload slot s: out/active were produced by step(s, ...).
		quiet := len(out) == 0 && !active
		hist[s%(lag+1)] = quiet
		var pin []congest.Recv
		// Steady state: a payload-quiet node parks until the next control
		// round it must drive — its next bit transition, or the root's
		// detection — or until mail (payload, a child's transition, the
		// exit wave) changes that schedule. Every slot in between would be
		// an empty payload round and a silent control round, so sleeping
		// through them is exactly the loop's behavior.
		due := s
		if quiet && exitAt < 0 {
			due = nextDue(s)
		}
		if due != s {
			var in []congest.Recv
			if due < 0 {
				in = h.Sleep()
			} else {
				in = h.SleepUntil(r0 + 2*due + 1)
			}
			rel := h.Round() - r0 - 1 // the deviating round, relative
			sw := rel / 2
			// Parked slots were payload-silent: mark them quiet, keeping
			// the surviving older window entries.
			for j := s + 1; j <= sw && j <= s+lag+1; j++ {
				hist[j%(lag+1)] = true
			}
			s = sw
			if rel%2 == 1 {
				// Woken in the control round of slot s (a child's
				// transition, or the exit wave): s precedes our due slot,
				// so nothing of ours was due; latch the arrivals, which
				// take effect from slot s+1.
				fold(in)
				if sawExit {
					sawExit = false
					exitAt = s + lag
					sendExitAt = s + 1
				}
				if root && exitAt < 0 {
					rrc := s - height + 1
					if rrc >= 0 && count == nc && hist[rrc%(lag+1)] {
						sendExitAt = s + 1
						exitAt = s + height
					}
				}
				if exitAt >= 0 && s >= exitAt {
					return
				}
				out, active = nil, false
				continue
			}
			// Woken in the payload round of slot s, by payload mail or at
			// the deadline (in == nil): in is payload input.
			pin = in
		} else if len(out) > 0 {
			pin = h.Exchange(out)
		} else {
			pin = h.SleepUntil(h.Round() + 1)
		}
		if quiet && len(pin) == 0 {
			out, active = nil, false // the Step contract: quiet stays quiet
		} else {
			out, active = step(s+1, pin)
		}

		// Control slot s: transmit our bit's transition, if any.
		ctrl = ctrl[:0]
		rr := s - lag
		if !root && exitAt < 0 && rr >= 0 {
			bit := hist[rr%(lag+1)] && count == nc
			if bit != sent {
				sent = bit
				k := wireQuietOff
				if bit {
					k = wireQuiet
				}
				ctrl = append(ctrl, congest.Send{Port: t.ParentPort, Wire: congest.Wire{Kind: k}})
			}
		}
		if s == sendExitAt {
			for _, p := range t.ChildPorts {
				ctrl = append(ctrl, congest.Send{Port: p, Wire: congest.Wire{Kind: wireExit}})
			}
		}
		var cin []congest.Recv
		if len(ctrl) > 0 {
			cin = h.Exchange(ctrl)
		} else {
			cin = h.SleepUntil(h.Round() + 1)
		}
		fold(cin)
		if sawExit {
			sawExit = false
			exitAt = s + height - depth
			sendExitAt = s + 1
		}
		if root && exitAt < 0 {
			// Children (depth 1) report payload round s-(height-1) at slot s.
			rrc := s - height + 1
			if rrc >= 0 && count == nc && hist[rrc%(lag+1)] {
				sendExitAt = s + 1
				exitAt = s + height
			}
		}
		if exitAt >= 0 && s >= exitAt {
			return
		}
		if exitAt >= 0 && sendExitAt >= 0 && s >= sendExitAt && len(out) == 0 && !active {
			// The exit wave is forwarded and the network is globally quiet:
			// the remaining slots are pure waiting for the deepest nodes to
			// be reached. Idle straight to the common exit round — stray
			// child transitions arriving meanwhile are discarded unread,
			// which is what the loop would have done with them.
			h.Idle(r0 + 2*exitAt + 2 - h.Round())
			return
		}
	}
}
