package randforest

import (
	"reflect"
	"sync"
	"testing"

	"steinerforest/internal/congest"
	"steinerforest/internal/graph"
	"steinerforest/internal/steiner"
)

// portSlot is one port's traffic in one slot of a level's route loop:
// the queue the flush found there, head first — the port's route and
// delegation wires, then, on the parent port, the pending census items.
// The flush sent its head.
type portSlot struct {
	node, pass, level, slot, port int
	queued                        []congest.Wire
}

// solveTraced runs Solve's node program with every node's route step
// wrapped to record each port's queue as the flush found it, and checks
// that the run's Stats and forest are Solve's.
func solveTraced(t *testing.T, ins *steiner.Instance, mode Mode, seed int64) []portSlot {
	t.Helper()
	var (
		mu    sync.Mutex
		trace []portSlot
	)
	out := &sharedOutput{selected: steiner.NewSolution(ins.G)}
	stats, err := congest.RunDriven(ins.G, func(h *congest.Host) (congest.Request, congest.Driver) {
		ns := &nodeState{h: h, label: ins.Label[h.ID()], mode: mode, out: out}
		rt := &router{ns: ns, firstFrom: map[chainKey]int{}, originated: map[chainKey]bool{}, gathered: map[int]bool{}}
		rt.step = func(slot int, in []congest.Recv) ([]congest.Send, bool) {
			sends, active := rt.route(slot, in)
			mu.Lock()
			defer mu.Unlock()
			for _, s := range sends {
				q := append([]congest.Wire{s.Wire}, ns.queues[s.Port]...)
				if s.Port == ns.tree.ParentPort {
					q = append(q, rt.censusQ...)
				}
				trace = append(trace, portSlot{h.ID(), ns.pass, ns.level, slot, s.Port, q})
			}
			return sends, active
		}
		ns.rt = rt
		return ns.start()
	}, congest.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(ins, mode, congest.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stats, res.Stats) || !reflect.DeepEqual(out.selected.Edges(), res.Solution.Edges()) {
		t.Fatalf("traced run %+v differs from Solve's %+v", *stats, *res.Stats)
	}
	return trace
}

// checkPortOrder requires every queue in trace to hold its route wires
// ahead of its delegations and those ahead of its census items, so a
// census item goes on a port only in a round with no route or delegation
// wire queued there, and every delegation that shared its port's queue
// with a route wire to go in the port's next round with no route wire
// queued: the port sends one queued route wire per round until then. It
// returns the number of such contended slots, and the number of slots in
// which a census item waited behind a delegation.
func checkPortOrder(t *testing.T, trace []portSlot) (contended, waited int) {
	t.Helper()
	type portKey struct{ node, pass, level, port int }
	byPort := map[portKey][]portSlot{}
	for _, ev := range trace {
		k := portKey{ev.node, ev.pass, ev.level, ev.port}
		byPort[k] = append(byPort[k], ev)
	}
	for k, evs := range byPort {
		for i, ev := range evs {
			routes, delegs := 0, 0
			for routes < len(ev.queued) && ev.queued[routes].Kind == wireRoute {
				routes++
			}
			for routes+delegs < len(ev.queued) && ev.queued[routes+delegs].Kind == wireDeleg {
				delegs++
			}
			for _, w := range ev.queued[routes+delegs:] {
				if w.Kind != wireLabel {
					t.Fatalf("%+v slot %d: %v queued behind a census item", k, ev.slot, w)
				}
			}
			if delegs > 0 && routes+delegs < len(ev.queued) {
				waited++
			}
			if routes == 0 || delegs == 0 {
				continue
			}
			contended++
			deleg := ev.queued[routes]
			j := i + 1
			for ; j < len(evs) && evs[j].queued[0].Kind == wireRoute; j++ {
				if evs[j].slot != evs[j-1].slot+1 {
					t.Fatalf("%+v: port idle at slot %d with a route wire queued", k, evs[j-1].slot+1)
				}
			}
			if j == len(evs) || evs[j].slot != evs[j-1].slot+1 || evs[j].queued[0] != deleg {
				t.Fatalf("%+v slot %d: delegation %v not sent in the port's next free round", k, ev.slot, deleg)
			}
		}
	}
	return contended, waited
}

// contentionFuzzSeed is a FuzzRandDriven input whose ModeFull run queues
// a delegation and a route wire on one port in one slot (the 13-node
// instance TestPortContention's tree was cut down from).
var contentionFuzzSeed = []byte{204, 91, 98, 48, 171, 159, 135, 205, 92, 181, 52, 244}

// TestPortContention: on a hand-made 13-node tree, node 12 is node 1's
// level-3 ancestor and also forwards node 11's route wires toward its own
// ancestor, node 10, through node 9. When node 1's route arrives, node 12
// queues the delegation back to node 1 on its port to node 9 behind a
// route wire: the route wire goes in slot 2, the delegation in slot 3.
// Every port of the run, and of FuzzRandDriven's contention seed, keeps
// its route wires ahead and sends a delegation in its next free round;
// a census item goes only when neither is queued, and in the run some
// census item waits behind a delegation, so sending census items first
// (which changes no forest) fails here.
func TestPortContention(t *testing.T) {
	g := graph.New(13)
	for _, e := range [][3]int{
		{0, 4, 2}, {1, 9, 14}, {2, 9, 10}, {3, 6, 13}, {4, 9, 2}, {5, 6, 43},
		{5, 10, 31}, {6, 7, 23}, {8, 9, 24}, {9, 10, 7}, {9, 12, 1}, {11, 12, 2},
	} {
		g.AddEdge(e[0], e[1], int64(e[2]))
	}
	ins := steiner.NewInstance(g)
	ins.SetComponent(0, 0, 1)
	ins.SetComponent(1, 2, 11)
	trace := solveTraced(t, ins, ModeFull, 171)
	n, w := checkPortOrder(t, trace)
	if n != 1 {
		t.Errorf("%d contended slots, want 1", n)
	}
	if w == 0 {
		t.Error("no census item waited behind a delegation")
	}
	var sent []congest.Wire // node 12's level-3 sends to node 9, slots 2 and 3
	for _, ev := range trace {
		if ev.node == 12 && ev.level == 3 && g.Neighbors(12)[ev.port].To == 9 && (ev.slot == 2 || ev.slot == 3) {
			sent = append(sent, ev.queued[0])
		}
	}
	route := congest.Wire{Kind: wireRoute, A: 10, C: 1}
	if want := []congest.Wire{route, delegWire(0, 12, 0)}; !reflect.DeepEqual(sent, want) {
		t.Errorf("node 12 sent %v to node 9 in slots 2-3, want %v", sent, want)
	}

	fins, seed, _ := fuzzInstance(contentionFuzzSeed)
	if n, _ := checkPortOrder(t, solveTraced(t, fins, ModeFull, seed)); n == 0 {
		t.Error("fuzz seed: no port queued a delegation with a route wire")
	}
}
