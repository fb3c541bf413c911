package dist

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"steinerforest/internal/congest"
	"steinerforest/internal/graph"
)

// quietRef is StartQuiet's defining loop: the same edge-triggered
// convergecast, but every node exchanges in every payload and control
// round — no parking, no window reconstruction, no idle-out. StartQuiet
// must be observationally identical to it: the same Stats, the same exit
// round, and the same step calls with the same inputs.
type quietRef struct {
	h                  *congest.Host
	t                  *Tree
	step               Step
	hist               []bool // own quiet bit per payload slot
	latched            map[int]bool
	sent               bool
	exitAt, sendExitAt int
	out                []congest.Send
	active             bool
	s                  int
	control            bool // the pending exchange is slot s's control round
}

func startQuietRef(h *congest.Host, t *Tree, step Step) (congest.Request, congest.Driver) {
	r := &quietRef{h: h, t: t, step: step, latched: map[int]bool{}, exitAt: -1, sendExitAt: -1}
	r.out, r.active = step(0, nil)
	return r.payload(), r
}

// payload returns slot s's payload round.
func (r *quietRef) payload() congest.Request {
	r.hist = append(r.hist, len(r.out) == 0 && !r.active)
	r.control = false
	return congest.Exchange(r.out)
}

func (r *quietRef) Next(in []congest.Recv) (congest.Request, bool) {
	t, s := r.t, r.s
	root, nc, lag := t.IsRoot(), len(t.ChildPorts), t.Height-t.Depth
	if !r.control {
		if r.hist[s] && len(in) == 0 {
			r.out, r.active = nil, false
		} else {
			r.out, r.active = r.step(s+1, in)
		}
		var ctrl []congest.Send
		if !root && r.exitAt < 0 && s >= lag {
			if bit := r.hist[s-lag] && len(r.latched) == nc; bit != r.sent {
				r.sent = bit
				k := wireQuietOff
				if bit {
					k = wireQuiet
				}
				ctrl = append(ctrl, congest.Send{Port: t.ParentPort, Wire: congest.Wire{Kind: k}})
			}
		}
		if s == r.sendExitAt {
			for _, p := range t.ChildPorts {
				ctrl = append(ctrl, congest.Send{Port: p, Wire: congest.Wire{Kind: wireExit}})
			}
		}
		r.control = true
		return congest.Exchange(ctrl), true
	}
	for _, rc := range in {
		switch rc.Wire.Kind {
		case wireQuiet:
			r.latched[rc.Port] = true
		case wireQuietOff:
			delete(r.latched, rc.Port)
		case wireExit:
			r.exitAt, r.sendExitAt = s+lag, s+1
		}
	}
	if root && r.exitAt < 0 && s >= t.Height-1 && len(r.latched) == nc && r.hist[s-t.Height+1] {
		r.exitAt, r.sendExitAt = s+t.Height, s+1
	}
	if r.exitAt >= 0 && s >= r.exitAt {
		return congest.Request{}, false
	}
	r.s++
	return r.payload(), true
}

// stepCall is one observed call of a bursty step: its slot and engine
// round, a digest of its input, and its output.
type stepCall struct {
	slot, round int
	in          uint64
	sends       int
	active      bool
}

// burstyStep returns a node's Step for the equivalence test. Mail carries
// a hop budget; a node holding budget stays active (silent) for 1-3 slots
// and then scatters the decremented budget to random neighbors, so nodes
// switch between active and quiet several times within one reporting
// window and are reactivated by mail. Every node has a few charges, which
// bounds the run. Seed 0 is the degenerate case of a lone root burst. The
// Step contract holds: with nothing held, empty input keeps the node
// quiet.
func burstyStep(h *congest.Host, seed int64, calls *[]stepCall) Step {
	return burstyStepFrom(h, rand.New(rand.NewSource(seed*7919+int64(h.ID()))), seed == 0, calls)
}

// intner is the randomness burstyStepFrom draws: a *rand.Rand, or a fuzz
// input's byte schedule.
type intner interface{ Intn(n int) int }

// burstyStepFrom is burstyStep drawing from rng; lone selects the lone
// root burst.
func burstyStepFrom(h *congest.Host, rng intner, lone bool, calls *[]stepCall) Step {
	hold, budget, charges := 0, int64(0), 4
	switch {
	case lone:
		// Only the root is ever active, silently: detection waits on the
		// root's own window.
		if h.ID() == 0 {
			hold, budget = 3, 1
		}
	case rng.Intn(6) == 0:
		hold, budget = 1+rng.Intn(3), 5
	}
	return func(s int, in []congest.Recv) ([]congest.Send, bool) {
		dig := uint64(len(in))
		for _, rc := range in {
			dig = dig*1099511628211 ^ uint64(rc.Port)<<20 ^ uint64(rc.Wire.C)
			if rc.Wire.C > 0 && charges > 0 {
				charges--
				hold, budget = 1+rng.Intn(3), max(budget, rc.Wire.C)
			}
		}
		var out []congest.Send
		switch {
		case hold > 1:
			hold--
		case hold == 1:
			hold = 0
			for p := 0; p < h.Degree() && budget > 1; p++ {
				if rng.Intn(3) == 0 {
					out = append(out, congest.Send{Port: p, Wire: congest.Wire{Kind: testTokKind, C: budget - 1}})
				}
			}
			budget = 0
		}
		*calls = append(*calls, stepCall{slot: s, round: h.Round(), in: dig, sends: len(out), active: hold > 0})
		return out, hold > 0
	}
}

// quietRun is one node-by-node observation of a quiescence loop.
type quietRun struct {
	stats *congest.Stats
	exit  []int
	calls [][]stepCall
	trees []*Tree
}

func observeQuiet(t *testing.T, g *graph.Graph, seed int64, run func(*congest.Host, *Tree, Step) (congest.Request, congest.Driver), opts ...congest.Option) quietRun {
	t.Helper()
	return observeSteps(t, g, func(h *congest.Host, calls *[]stepCall) Step { return burstyStep(h, seed, calls) }, run, opts...)
}

// observeSteps builds the BFS tree and then starts run with the step mk
// builds on every node of g, recording each node's step calls and exit
// round.
func observeSteps(t *testing.T, g *graph.Graph, mk func(*congest.Host, *[]stepCall) Step, run func(*congest.Host, *Tree, Step) (congest.Request, congest.Driver), opts ...congest.Option) quietRun {
	t.Helper()
	r := quietRun{exit: make([]int, g.N()), calls: make([][]stepCall, g.N()), trees: make([]*Tree, g.N())}
	stats, err := congest.RunDriven(g, onTree(func(h *congest.Host, tr *Tree) (congest.Request, congest.Driver) {
		return run(h, tr, mk(h, &r.calls[h.ID()]))
	}, then(func(h *congest.Host, tr *Tree) {
		r.exit[h.ID()], r.trees[h.ID()] = h.Round(), tr
	})), opts...)
	if err != nil {
		t.Fatal(err)
	}
	r.stats = stats
	return r
}

// sameRun fails unless got matches want: Stats, every node's exit round,
// and every node's step calls.
func sameRun(t *testing.T, name string, got, want quietRun) {
	t.Helper()
	if !reflect.DeepEqual(got.stats, want.stats) {
		t.Fatalf("%s: stats %+v, reference %+v", name, *got.stats, *want.stats)
	}
	for v := range want.exit {
		if got.exit[v] != want.exit[v] {
			t.Fatalf("%s: node %d exited at round %d, reference %d", name, v, got.exit[v], want.exit[v])
		}
		if !slices.Equal(got.calls[v], want.calls[v]) {
			t.Fatalf("%s: node %d step calls diverged:\n got %v\nwant %v", name, v, got.calls[v], want.calls[v])
		}
	}
}

// reactivatedTwiceInWindow reports whether some node went from quiet to
// active twice within one reporting window of its own, i.e. its bit
// stream toggled several times inside one lag.
func (r quietRun) reactivatedTwiceInWindow() bool {
	for v, calls := range r.calls {
		lag := r.trees[v].Height - r.trees[v].Depth
		prevSlot, prevQuiet := -1, true
		var wakes []int
		for _, c := range calls {
			quiet := c.sends == 0 && !c.active
			if (prevQuiet || c.slot > prevSlot+1) && !quiet {
				wakes = append(wakes, c.slot)
			}
			prevSlot, prevQuiet = c.slot, quiet
		}
		for i := 1; i < len(wakes); i++ {
			if wakes[i]-wakes[i-1] < lag {
				return true
			}
		}
	}
	return false
}

// TestRunQuietMultiTransitionEquivalence drives bursty steps whose bits
// toggle several times per reporting window, on broom, grid and GNP
// graphs, and requires StartQuiet to match its defining loop exactly under
// the default engine and the per-round reference (WithFastPath(false)).
func TestRunQuietMultiTransitionEquivalence(t *testing.T) {
	broom := graph.New(45) // a 24-edge handle off node 0 plus 20 leaves
	for v := 1; v < 45; v++ {
		if v <= 24 {
			broom.AddEdge(v-1, v, 1)
		} else {
			broom.AddEdge(0, v, 1)
		}
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"broom", broom},
		{"grid6x7", graph.Grid(6, 7, graph.UnitWeights)},
		{"gnp40", graph.GNP(40, 0.08, graph.UnitWeights, rand.New(rand.NewSource(5)))},
	}
	configs := []struct {
		name string
		opts []congest.Option
	}{
		{"default", nil},
		{"nofast", []congest.Option{congest.WithFastPath(false)}},
	}
	for _, tg := range graphs {
		toggled := false
		for seed := int64(0); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tg.name, seed), func(t *testing.T) {
				ref := observeQuiet(t, tg.g, seed, startQuietRef)
				toggled = toggled || ref.reactivatedTwiceInWindow()
				for _, cfg := range configs {
					sameRun(t, cfg.name, observeQuiet(t, tg.g, seed, StartQuiet, cfg.opts...), ref)
				}
			})
		}
		if !toggled {
			t.Errorf("%s: no node reactivated twice within one reporting window; the test lost its coverage", tg.name)
		}
	}
}

// TestRunQuietStepPanic pins the quiescence loop's failure mode: a step
// that panics — in StartQuiet itself in slot 0, or inside a later Next —
// fails the run with the same error text under every engine
// configuration.
func TestRunQuietStepPanic(t *testing.T) {
	g := graph.Grid(4, 5, graph.UnitWeights)
	configs := []struct {
		name string
		opts []congest.Option
	}{
		{"default", nil},
		{"nofast", []congest.Option{congest.WithFastPath(false)}},
	}
	for _, slot := range []int{0, 3} {
		const want = "congest: node 7 panicked: dist test: step panic"
		for _, cfg := range configs {
			_, err := congest.RunDriven(g, onTree(func(h *congest.Host, tr *Tree) (congest.Request, congest.Driver) {
				return StartQuiet(h, tr, func(s int, _ []congest.Recv) ([]congest.Send, bool) {
					if h.ID() == 7 && s == slot {
						panic("dist test: step panic")
					}
					return nil, s < 5 // active through slot 4, sending nothing
				})
			}), cfg.opts...)
			if err == nil || err.Error() != want {
				t.Errorf("slot %d, %s: err = %v, want %q", slot, cfg.name, err, want)
			}
		}
	}
}
