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

// StartBFSCollect constructs the BFS spanning tree rooted at node 0 and,
// riding the same waves, collects the nodes' local items into one sorted,
// filtered stream known to every node, as StartUpcastBroadcast without a
// cut: the first collect of a node program costs no rounds of its own
// beyond its items.
//
// A layered explore/accept flood builds levels and child sets; the
// completion convergecast that carries the maximum depth to the root is
// the collect's upcast, each node's completion wire ending its up stream;
// the root sends each accepted item down in the round it decides it, and
// the finish wave, which delivers the height, ends the down stream, with
// a synchronized exit (all nodes return in the same round, by which the
// finish has reached the deepest node).
//
// The schedule, with r counting rounds from entry: a node at depth d is
// woken by the explore flood in round d-1, floods in round d, learns its
// children from the accepts of round d+1, and upcasts from round d+2 on
// (a leaf without items sends its completion then); every node forwards
// the down stream one round after receiving it and idles out to the
// common exit round. All waiting is done asleep: an unjoined node has
// nothing to say until the flood reaches it, and a joined one nothing
// while blocked on a lagging child. With H the height and S the accepted
// items, the call takes about 3·H + S rounds.
//
// StartBFSCollect resets t and returns the first request and the driver
// of the build (upcast, cached on t); t is the node's BFS tree and
// t.Collected() its stream once the driver is done.
func StartBFSCollect(h *congest.Host, t *Tree, local []congest.Wire, cmp Cmp, newFilter func() Filter) (congest.Request, congest.Driver) {
	*t = Tree{Root: 0, ParentPort: -1}
	if h.N() <= 1 {
		collectAlone(t, local, cmp, newFilter, nil)
		return congest.Idle(0), finished{}
	}
	u := &upcast{h: h, t: t}
	u.begin(local, cmp, newFilter, nil)
	u.bfs, u.r0 = true, h.Round()
	if h.ID() == 0 {
		return u.flood(), u
	}
	u.state = bfsJoin
	return congest.Sleep(), u // until the explore flood arrives
}

// StartBFS constructs the BFS spanning tree rooted at node 0 in O(D)
// rounds: StartBFSCollect without items, whose completion convergecast
// and finish wave carry nothing but the maximum depth and the height.
// A leaf at depth d sends its completion in round d+2, an interior node
// one round after its last subtree completion arrived, and the root the
// finish one round after that: the build takes about 3·H rounds.
//
// StartBFS resets t and returns the first request and the driver of the
// build; t is the node's BFS tree once the driver is done.
func StartBFS(h *congest.Host, t *Tree) (congest.Request, congest.Driver) {
	return StartBFSCollect(h, t, nil, nil, nil)
}

// finished is the driver of a primitive that completed in its start form
// without a round (the single-node network): its first request, Idle(0),
// takes no round, and its Next reports done.
type finished struct{}

func (finished) Next([]congest.Recv) (congest.Request, bool) { return congest.Request{}, false }

// flood returns the flood round's request: explore on every port, accept
// on the parent's.
func (u *upcast) flood() congest.Request {
	deg, t := u.h.Degree(), u.t
	t.sendBuf = make([]congest.Send, 0, deg) // every later round sends on at most deg ports
	for p := 0; p < deg; p++ {
		kind := wireExplore
		if p == t.ParentPort {
			kind = wireAccept
		}
		t.sendBuf = append(t.sendBuf, congest.Send{Port: p, Wire: congest.Wire{Kind: kind}})
	}
	u.state = bfsFlood
	return congest.Exchange(t.sendBuf)
}
