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
func UpcastBroadcast(h *congest.Host, t *Tree, local []congest.Wire, cmp Cmp, newFilter func() Filter, stopAfter func(congest.Wire) bool) []congest.Wire {
	slices.SortStableFunc(local, cmp)
	var filter Filter
	if newFilter != nil {
		filter = newFilter()
	}
	if h.N() <= 1 {
		var acc []congest.Wire
		for _, it := range local {
			if filter != nil && !filter(it) {
				continue
			}
			acc = append(acc, it)
			if stopAfter != nil && stopAfter(it) {
				break
			}
		}
		return acc
	}

	root := t.IsRoot()
	nc := len(t.ChildPorts)
	childOf := make([]int, h.Degree()) // port -> child index, -1 otherwise
	for p := range childOf {
		childOf[p] = -1
	}
	for i, p := range t.ChildPorts {
		childOf[p] = i
	}
	queues := make([][]congest.Wire, nc) // per-child pending items, ascending
	done := make([]bool, nc)
	ownNext := 0

	// canPop reports whether the smallest remaining item of this subtree is
	// determined: every child stream has a visible head or has ended, and
	// at least one item is available.
	canPop := func() bool {
		any := ownNext < len(local)
		for i := 0; i < nc; i++ {
			if len(queues[i]) > 0 {
				any = true
			} else if !done[i] {
				return false
			}
		}
		return any
	}
	popMin := func() congest.Wire {
		best := -1 // -1 = own list
		var bestIt congest.Wire
		has := false
		if ownNext < len(local) {
			bestIt, has = local[ownNext], true
		}
		for i := 0; i < nc; i++ {
			if len(queues[i]) == 0 {
				continue
			}
			if !has || cmp(queues[i][0], bestIt) < 0 {
				best, bestIt, has = i, queues[i][0], true
			}
		}
		if best < 0 {
			ownNext++
		} else {
			queues[best] = queues[best][1:]
		}
		return bestIt
	}
	allEnded := func() bool {
		if ownNext < len(local) {
			return false
		}
		for i := 0; i < nc; i++ {
			if !done[i] || len(queues[i]) > 0 {
				return false
			}
		}
		return true
	}

	var result []congest.Wire // the broadcast stream (root: accepted)
	var fwd []congest.Wire    // interior: forward queue for the broadcast
	fwdEnd := false
	sawDown := false
	exitRound := -1
	// process folds one round's inbox into the upcast and downcast state.
	process := func(in []congest.Recv) {
		for _, rc := range in {
			switch rc.Wire.Kind {
			case wireUpDone:
				done[childOf[rc.Port]] = true
			case wireDownEnd:
				sawDown = true
				if nc > 0 {
					fwdEnd = true
				}
				exitRound = h.Round() + t.Height - t.Depth
			default:
				if rc.Port == t.ParentPort {
					sawDown = true
					result = append(result, rc.Wire)
					if nc > 0 {
						fwd = append(fwd, rc.Wire)
					}
				} else {
					ci := childOf[rc.Port]
					queues[ci] = append(queues[ci], rc.Wire)
				}
			}
		}
	}

	if root {
		// Collect until the stream is decided, asleep between deliveries
		// (consumption is local, so a round without mail changes nothing).
		finalized := false
		for !finalized {
			process(h.Sleep())
			for canPop() {
				it := popMin()
				if filter != nil && !filter(it) {
					continue
				}
				result = append(result, it)
				if stopAfter != nil && stopAfter(it) {
					finalized = true
					break
				}
			}
			if !finalized && allEnded() {
				finalized = true
			}
		}
		// Stream the accepted items down, one per round, then the end
		// marker; the wave reaches the deepest node Height-1 rounds later.
		// Stragglers may still be upcasting (a stopAfter cut): their items
		// arrive during the stream and are ignored.
		out := make([]congest.Send, 0, nc)
		for _, it := range result {
			out = out[:0]
			for _, p := range t.ChildPorts {
				out = append(out, congest.Send{Port: p, Wire: it})
			}
			h.Exchange(out)
		}
		out = out[:0]
		for _, p := range t.ChildPorts {
			out = append(out, congest.Send{Port: p, Wire: congest.Wire{Kind: wireDownEnd}})
		}
		h.Exchange(out)
		h.Idle(t.Height - 1)
		return result
	}

	// Non-root upcast: one accepted item (or the end marker) per round, as
	// soon as the subtree's next minimum is determined; sleep while blocked
	// on a lagging child. The phase ends when our stream is exhausted or
	// the broadcast already started (the root finalized early on a
	// stopAfter cut).
	upDoneSent := false
	var sendBuf [1]congest.Send
	for !upDoneSent && !sawDown {
		var out []congest.Send
		for canPop() {
			it := popMin()
			if filter == nil || filter(it) {
				sendBuf[0] = congest.Send{Port: t.ParentPort, Wire: it}
				out = sendBuf[:]
				break
			}
		}
		if out == nil && allEnded() {
			sendBuf[0] = congest.Send{Port: t.ParentPort, Wire: congest.Wire{Kind: wireUpDone}}
			out = sendBuf[:]
			upDoneSent = true
		}
		if out != nil {
			process(h.Exchange(out))
		} else if filter == nil && nc == 1 && ownNext >= len(local) &&
			len(queues[0]) == 0 && !done[0] {
			// Single-child passthrough: nothing of our own left and exactly
			// one stream to merge, so the rest of the upcast is a pure relay.
			// A RelayStream order forwards the child's items — end marker
			// included — to the parent with the same one-round latency the
			// loop gives them, without resuming this node per item. Only a
			// deviating round (the broadcast starting early on a stopAfter
			// cut) hands an inbox back before the marker's forward.
			stream, last := h.RelayStream(t.ChildPorts[0], []int{t.ParentPort}, wireUpDone)
			if k := len(stream); k > 0 && stream[k-1].Wire.Kind == wireUpDone {
				// The engine forwarded the marker: our wireUpDone is sent.
				done[0] = true
				upDoneSent = true
			}
			process(last)
		} else {
			process(h.Sleep())
		}
	}
	// Wait for the broadcast to reach us and relay it, end marker included,
	// toward the children. With nothing queued the whole pipeline stage
	// runs inside the engine: a RelayStream order forwards the parent's
	// stream, waking us once, after the marker's own forward. Only a
	// straggler's upcast item (possible after a stopAfter cut) wakes us
	// early, whose round we handle by hand before parking again.
	dnBuf := make([]congest.Send, 0, nc)
	for exitRound < 0 {
		if len(fwd) > 0 {
			it := fwd[0]
			fwd = fwd[1:]
			out := dnBuf[:0]
			for _, p := range t.ChildPorts {
				out = append(out, congest.Send{Port: p, Wire: it})
			}
			process(h.Exchange(out))
		} else {
			stream, last := h.RelayStream(t.ParentPort, t.ChildPorts, wireDownEnd)
			result = slices.Grow(result, len(stream))
			ended := false
			for _, rc := range stream {
				// Already forwarded by the engine: record, don't queue.
				if rc.Wire.Kind == wireDownEnd {
					ended = true
					break
				}
				result = append(result, rc.Wire)
			}
			if ended {
				// The marker arrived one round before its forward when we
				// have children, in the waking round otherwise; stray mail
				// of the forward round (last) is ignored, as the loop's
				// discarded Exchange result would have been.
				arrived := h.Round()
				if nc > 0 {
					arrived--
				}
				exitRound = arrived + t.Height - t.Depth
			} else {
				process(last)
			}
		}
	}
	for len(fwd) > 0 || fwdEnd {
		out := dnBuf[:0]
		if len(fwd) > 0 {
			it := fwd[0]
			fwd = fwd[1:]
			for _, p := range t.ChildPorts {
				out = append(out, congest.Send{Port: p, Wire: it})
			}
		} else {
			fwdEnd = false
			for _, p := range t.ChildPorts {
				out = append(out, congest.Send{Port: p, Wire: congest.Wire{Kind: wireDownEnd}})
			}
		}
		h.Exchange(out)
	}
	h.Idle(exitRound - h.Round())
	return result
}

// BroadcastList delivers the root's item list to every node: the root
// streams its items down the BFS tree one per round followed by an end
// marker, interior nodes forward with one round of latency, and all nodes
// exit in the same round. Non-root callers pass nil (their argument is
// ignored); every node returns the root's list in order. Nodes sleep until
// the stream reaches them; fully parked stretches of the pipeline drain
// as engine-side relay forwards.
func BroadcastList(h *congest.Host, t *Tree, items []congest.Wire) []congest.Wire {
	if h.N() <= 1 {
		return items
	}
	nc := len(t.ChildPorts)
	if t.IsRoot() {
		out := make([]congest.Send, 0, nc)
		for _, it := range items {
			out = out[:0]
			for _, p := range t.ChildPorts {
				out = append(out, congest.Send{Port: p, Wire: it})
			}
			h.Exchange(out)
		}
		out = out[:0]
		for _, p := range t.ChildPorts {
			out = append(out, congest.Send{Port: p, Wire: congest.Wire{Kind: wireBcastEnd}})
		}
		h.Exchange(out)
		h.Idle(t.Height - 1)
		return items
	}

	// The whole stage runs inside the engine: one RelayStream order
	// forwards the parent's stream, end marker included, and wakes us once
	// it has passed — deviations cannot occur in this primitive, so the
	// drain is pure relay traffic.
	var result []congest.Wire
	stream, _ := h.RelayStream(t.ParentPort, t.ChildPorts, wireBcastEnd)
	if len(stream) > 1 {
		result = make([]congest.Wire, 0, len(stream)-1) // all but the marker
	}
	for _, rc := range stream {
		if rc.Wire.Kind == wireBcastEnd {
			break
		}
		result = append(result, rc.Wire)
	}
	// The marker arrived one round before its forward when we have
	// children, in the waking round at a leaf.
	arrived := h.Round()
	if nc > 0 {
		arrived--
	}
	h.Idle(arrived + t.Height - t.Depth - h.Round())
	return result
}

// Max computes the global maximum of the nodes' values by a convergecast up
// the BFS tree and a synchronized broadcast of the result; every node
// returns the maximum in the same round. Interior nodes sleep while their
// subtrees aggregate; everyone idles out to the common exit round.
func Max(h *congest.Host, t *Tree, v int64) int64 {
	if h.N() <= 1 {
		return v
	}
	best := v
	nc := len(t.ChildPorts)
	if nc == 0 {
		// Leaves detect their (empty) subtree in the first round and send
		// in the second, matching the generic detect-then-send cadence.
		h.Exchange(nil)
	} else {
		for pending := nc; pending > 0; {
			for _, rc := range h.Sleep() {
				if rc.Wire.Kind == wireMaxUp {
					if rc.Wire.C > best {
						best = rc.Wire.C
					}
					pending--
				}
			}
		}
	}
	if t.IsRoot() {
		out := make([]congest.Send, 0, nc)
		for _, p := range t.ChildPorts {
			out = append(out, congest.Send{Port: p, Wire: congest.Wire{Kind: wireMaxDown, C: best}})
		}
		h.Exchange(out)
		h.Idle(t.Height - 1)
		return best
	}
	h.Exchange([]congest.Send{{Port: t.ParentPort, Wire: congest.Wire{Kind: wireMaxUp, C: best}}})
	got := false
	for !got {
		for _, rc := range h.Sleep() {
			if rc.Wire.Kind == wireMaxDown {
				best = rc.Wire.C
				got = true
			}
		}
	}
	exitRound := h.Round() + t.Height - t.Depth
	if nc > 0 {
		out := make([]congest.Send, 0, nc)
		for _, p := range t.ChildPorts {
			out = append(out, congest.Send{Port: p, Wire: congest.Wire{Kind: wireMaxDown, C: best}})
		}
		h.Exchange(out)
	}
	h.Idle(exitRound - h.Round())
	return best
}
