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
}

// IsRoot reports whether this node is the tree root.
func (t *Tree) IsRoot() bool { return t.ParentPort < 0 }

// BuildBFS constructs the BFS spanning tree rooted at node 0 in O(D)
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
func BuildBFS(h *congest.Host) *Tree {
	t := &Tree{Root: 0, ParentPort: -1}
	if h.N() <= 1 {
		return t
	}
	r0 := h.Round()
	deg := h.Degree()

	if h.ID() != 0 {
		// Sleep until the explore flood arrives; the inbox is port-sorted,
		// so the lowest explorer wins the parent role.
		in := h.Sleep()
		t.Depth = h.Round() - r0
		t.ParentPort = in[0].Port
	}
	flood := make([]congest.Send, 0, deg)
	for p := 0; p < deg; p++ {
		kind := wireExplore
		if p == t.ParentPort {
			kind = wireAccept
		}
		flood = append(flood, congest.Send{Port: p, Wire: congest.Wire{Kind: kind}})
	}
	h.Exchange(flood)
	// Accepts arrive exactly one round after the flood (explores from
	// same-level neighbors may share the inbox); afterwards the child set
	// is final and port-sorted.
	var children []int
	for _, rc := range h.Exchange(nil) {
		if rc.Wire.Kind == wireAccept {
			children = append(children, rc.Port)
		}
	}

	maxDepth := t.Depth
	for pending := len(children); pending > 0; {
		for _, rc := range h.Sleep() {
			if rc.Wire.Kind == wireDoneUp {
				if d := int(rc.Wire.C); d > maxDepth {
					maxDepth = d
				}
				pending--
			}
		}
	}

	if t.IsRoot() {
		t.Height = maxDepth
		finish := make([]congest.Send, 0, len(children))
		for _, p := range children {
			finish = append(finish, congest.Send{Port: p, Wire: congest.Wire{Kind: wireFinish, C: int64(t.Height)}})
		}
		h.Exchange(finish)
		// The finish wave reaches the deepest node Height-1 rounds after
		// this send; exit together with it.
		h.Idle(t.Height - 1)
	} else {
		h.Exchange([]congest.Send{{Port: t.ParentPort, Wire: congest.Wire{Kind: wireDoneUp, C: int64(maxDepth)}}})
		for t.Height == 0 {
			for _, rc := range h.Sleep() {
				if rc.Wire.Kind == wireFinish {
					t.Height = int(rc.Wire.C)
				}
			}
		}
		// The finish arrived in relative round rf = h.Round()-r0-1; forward
		// it, then idle to the common exit round rf + Height - Depth.
		exitRound := h.Round() + t.Height - t.Depth
		if len(children) > 0 {
			finish := make([]congest.Send, 0, len(children))
			for _, p := range children {
				finish = append(finish, congest.Send{Port: p, Wire: congest.Wire{Kind: wireFinish, C: int64(t.Height)}})
			}
			h.Exchange(finish)
		}
		h.Idle(exitRound - h.Round())
	}
	t.ChildPorts = children
	return t
}
