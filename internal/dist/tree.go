package dist

import "steinerforest/internal/congest"

// Tree is a node's local view of the global BFS spanning tree rooted at
// node 0: its depth, parent port, child ports, and the globally known tree
// height, which every synchronized primitive uses to schedule simultaneous
// exits.
type Tree struct {
	Root       int   // root node id (always 0)
	Depth      int   // this node's BFS depth
	Height     int   // maximum depth over all nodes (global knowledge)
	ParentPort int   // port toward the parent; -1 at the root
	ChildPorts []int // ports of the children, ascending

	// Per-node state of the tree's primitives, built on first use and
	// reused by every later call.
	quiet *quietDriver
	bf    *bellmanFord
	up    *upcast
	bcast *broadcast
	agg   *maxAgg
	// stream holds the node's stream of the latest collect
	// (StartUpcastBroadcast) or exit list (StartQuietList); every call
	// refills it, keeping its capacity.
	stream []congest.Wire
	// sendBuf holds the sends of the primitives' current round: a node
	// runs one primitive at a time, and the engine reads a round's sends
	// before the driver builds the next round's.
	sendBuf []congest.Send
}

// IsRoot reports whether this node is the tree root.
func (t *Tree) IsRoot() bool { return t.ParentPort < 0 }

// toChildren returns a round's sends of w on every child port.
func (t *Tree) toChildren(w congest.Wire) []congest.Send {
	t.sendBuf = t.sendBuf[:0]
	for _, p := range t.ChildPorts {
		t.sendBuf = append(t.sendBuf, congest.Send{Port: p, Wire: w})
	}
	return t.sendBuf
}

// toParent returns a round's send of w to the parent.
func (t *Tree) toParent(w congest.Wire) []congest.Send {
	t.sendBuf = append(t.sendBuf[:0], congest.Send{Port: t.ParentPort, Wire: w})
	return t.sendBuf
}

// StartBFS constructs the BFS spanning tree rooted at node 0 in O(D)
// rounds: a layered explore/accept flood builds levels and child sets, a
// completion convergecast carries the maximum depth to the root, and a
// final finish broadcast delivers the height with a synchronized exit (all
// nodes return in the same round).
//
// The schedule, with r counting rounds from entry: a node at depth d is
// woken by the explore flood in round d-1, floods in round d, learns its
// children from the accepts of round d+1, sends its completion one round
// after the last subtree completion arrived (round d+2 at the leaves),
// forwards the finish wave one round after receiving it, and everyone
// idles out to the common exit round. All waiting is done asleep: an
// unjoined node has nothing to say until the flood reaches it, and a
// joined one nothing between its accepts and its subtree completions.
//
// StartBFS resets t and returns the first request and the driver of the
// build (bfsBuild); t is the node's BFS tree once the driver is done.
func StartBFS(h *congest.Host, t *Tree) (congest.Request, congest.Driver) {
	*t = Tree{Root: 0, ParentPort: -1}
	if h.N() <= 1 {
		return congest.Idle(0), finished{}
	}
	b := &bfsBuild{h: h, t: t, r0: h.Round()}
	first := congest.Sleep() // until the explore flood arrives
	if h.ID() == 0 {
		first = b.flood()
	}
	return first, b
}

// finished is the driver of a primitive that completed in its start form
// without a round (the single-node network): its first request, Idle(0),
// takes no round, and its Next reports done.
type finished struct{}

func (finished) Next([]congest.Recv) (congest.Request, bool) { return congest.Request{}, false }

// bfsBuild states: the request the node is waiting on.
const (
	bfsJoin    = uint8(iota) // asleep until the explore flood arrives
	bfsFlood                 // the flood round
	bfsAccepts               // the round the children's accepts arrive
	bfsDoneUp                // asleep until every child's completion arrived
	bfsSentUp                // the completion's round
	bfsFinish                // asleep until the finish wave arrives
	bfsForward               // the finish wave's forward round
	bfsIdle                  // the idle-out to the common exit round
)

// bfsBuild is StartBFS's per-node state machine: the build's schedule
// split at its round barriers.
type bfsBuild struct {
	h        *congest.Host
	t        *Tree
	state    uint8
	r0       int
	pending  int // children whose completion has not arrived
	maxDepth int
	exit     int // the common exit round
}

// flood returns the flood round's request: explore on every port, accept
// on the parent's.
func (b *bfsBuild) flood() congest.Request {
	deg, t := b.h.Degree(), b.t
	t.sendBuf = make([]congest.Send, 0, deg) // every later round sends on at most deg ports
	for p := 0; p < deg; p++ {
		kind := wireExplore
		if p == t.ParentPort {
			kind = wireAccept
		}
		t.sendBuf = append(t.sendBuf, congest.Send{Port: p, Wire: congest.Wire{Kind: kind}})
	}
	b.state = bfsFlood
	return congest.Exchange(t.sendBuf)
}

// Next completes the request the node was waiting on and returns the
// next one.
func (b *bfsBuild) Next(in []congest.Recv) (congest.Request, bool) {
	h, t := b.h, b.t
	switch b.state {
	case bfsJoin:
		// The inbox is port-sorted, so the lowest explorer wins the
		// parent role.
		t.Depth = h.Round() - b.r0
		t.ParentPort = in[0].Port
		return b.flood(), true
	case bfsFlood:
		// Accepts arrive exactly one round after the flood (explores from
		// same-level neighbors may share the inbox).
		b.state = bfsAccepts
		return congest.Exchange(nil), true
	case bfsAccepts:
		for _, rc := range in {
			if rc.Wire.Kind == wireAccept {
				t.ChildPorts = append(t.ChildPorts, rc.Port)
			}
		}
		b.maxDepth, b.pending = t.Depth, len(t.ChildPorts)
	case bfsDoneUp:
		for _, rc := range in {
			if rc.Wire.Kind == wireDoneUp {
				b.maxDepth = max(b.maxDepth, int(rc.Wire.C))
				b.pending--
			}
		}
	case bfsSentUp:
		b.state = bfsFinish
		return congest.Sleep(), true
	case bfsFinish:
		for _, rc := range in {
			if rc.Wire.Kind == wireFinish {
				t.Height = int(rc.Wire.C)
			}
		}
		if t.Height == 0 {
			return congest.Sleep(), true
		}
		// The finish arrived in relative round rf = h.Round()-r0-1;
		// forward it, then idle to the common exit round
		// rf + Height - Depth.
		b.exit = h.Round() + t.Height - t.Depth
		if len(t.ChildPorts) > 0 {
			b.state = bfsForward
			return congest.Exchange(t.toChildren(congest.Wire{Kind: wireFinish, C: int64(t.Height)})), true
		}
		fallthrough
	case bfsForward:
		b.state = bfsIdle
		return congest.Idle(b.exit - h.Round()), true
	default: // bfsIdle: the common exit round
		return congest.Request{}, false
	}
	// After the accepts and each completion: the child set is final and
	// port-sorted; wait for the remaining subtree completions, then report.
	if b.pending > 0 {
		b.state = bfsDoneUp
		return congest.Sleep(), true
	}
	if t.IsRoot() {
		// The finish wave reaches the deepest node Height-1 rounds after
		// this send; exit together with it.
		t.Height = b.maxDepth
		b.exit = h.Round() + t.Height
		b.state = bfsForward
		return congest.Exchange(t.toChildren(congest.Wire{Kind: wireFinish, C: int64(t.Height)})), true
	}
	b.state = bfsSentUp
	return congest.Exchange(t.toParent(congest.Wire{Kind: wireDoneUp, C: int64(b.maxDepth)})), true
}
