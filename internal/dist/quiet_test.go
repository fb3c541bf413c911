package dist

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"steinerforest/internal/congest"
	"steinerforest/internal/graph"
)

// quietRef is StartQuiet's defining loop: the same edge-triggered
// convergecast in one lane, but every node exchanges in every slot — no
// parking, no window reconstruction, no idle-out. Each slot is one round
// carrying the step's payload and the slot's control: a transition or
// the exit wave rides on its port's payload as a Wire.Ctl code, or goes
// alone when the port has none. StartQuiet must be observationally
// identical to it: the same Stats, the same exit round, and the same step
// calls with the same inputs.
//
// With a root list (startQuietListRef) the root sends the list as the
// exit wave — item 0 with the exit code, then the other items, the last
// with the quiet code as its end mark (a lone item is followed by an end
// marker wire), one per slot — and every other node forwards each list
// wire from its parent in the next slot, returning height - depth slots
// after the end mark arrived.
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

	list *[]congest.Wire // the root's list; nil without one
	got  []congest.Wire  // the list received (at the root: its own)
	fwd  congest.Wire    // a list wire to forward to the children this slot
}

// refCtl is the reference's control-only wire kind per control code.
var refCtl = map[uint8]uint16{ctlQuiet: wireQuiet, ctlQuietOff: wireQuietOff, ctlExit: wireExit}

// refMerges counts the control codes the reference sent riding on a
// payload message, so tests can require that their runs exercise the
// merge.
var refMerges int

func startQuietRef(h *congest.Host, t *Tree, step Step) (congest.Request, congest.Driver) {
	return startQuietListRef(h, t, step, nil)
}

func startQuietListRef(h *congest.Host, t *Tree, step Step, list *[]congest.Wire) (congest.Request, congest.Driver) {
	r := &quietRef{h: h, t: t, step: step, latched: map[int]bool{}, exitAt: -1, sendExitAt: -1, list: list}
	r.out, r.active = step(0, nil)
	return r.slot(), r
}

// listed reports whether the root streams a nonempty list.
func (r *quietRef) listed() bool { return r.t.IsRoot() && len(r.got) > 0 }

// slot returns slot s's exchange: the payload with the slot's control
// codes merged in per port.
func (r *quietRef) slot() congest.Request {
	t, s := r.t, r.s
	r.hist = append(r.hist, len(r.out) == 0 && !r.active)
	ctl := map[int]uint8{}
	if lag := t.Height - t.Depth; !t.IsRoot() && r.exitAt < 0 && s >= lag {
		if bit := r.hist[s-lag] && len(r.latched) == len(t.ChildPorts); bit != r.sent {
			r.sent = bit
			ctl[t.ParentPort] = ctlQuietOff
			if bit {
				ctl[t.ParentPort] = ctlQuiet
			}
		}
	}
	if s == r.sendExitAt && !r.listed() {
		for _, p := range t.ChildPorts {
			ctl[p] = ctlExit
		}
	}
	if k := s - r.sendExitAt; r.listed() && k >= 0 {
		switch {
		case k < len(r.got):
			r.fwd = r.got[k]
			if k == 0 {
				r.fwd.Ctl = ctlExit
			} else if k == len(r.got)-1 {
				r.fwd.Ctl = ctlQuiet
			}
		case k == 1:
			r.fwd = congest.Wire{Kind: wireQuiet}
		}
	}
	var sends []congest.Send
	if r.fwd.Kind != 0 {
		for _, p := range t.ChildPorts {
			sends = append(sends, congest.Send{Port: p, Wire: r.fwd})
		}
		r.fwd = congest.Wire{}
	}
	for _, snd := range r.out {
		if snd.Wire.Ctl = ctl[snd.Port]; snd.Wire.Ctl != 0 {
			refMerges++
		}
		delete(ctl, snd.Port)
		sends = append(sends, snd)
	}
	for p, c := range ctl {
		sends = append(sends, congest.Send{Port: p, Wire: congest.Wire{Kind: refCtl[c]}})
	}
	return congest.Exchange(sends)
}

func (r *quietRef) Next(in []congest.Recv) (congest.Request, bool) {
	t, s := r.t, r.s
	var pin []congest.Recv
	for _, rc := range in {
		k := rc.Wire.Kind
		switch {
		case r.list != nil && rc.Port == t.ParentPort && (rc.Wire.Ctl == ctlExit && k != wireExit || r.got != nil):
			// The exit list: item 0 carries the exit code, the quiet
			// code or the marker ends it.
			r.fwd, rc.Wire.Ctl = rc.Wire, 0
			r.exitAt = math.MaxInt
			if k != wireQuiet {
				r.got = append(r.got, rc.Wire)
			}
			if k == wireQuiet || r.fwd.Ctl == ctlQuiet {
				r.exitAt = s + t.Height - t.Depth
			}
			continue
		case rc.Wire.Ctl != 0:
			k = refCtl[rc.Wire.Ctl]
			rc.Wire.Ctl = 0
			pin = append(pin, rc)
		case k != wireQuiet && k != wireQuietOff && k != wireExit:
			pin = append(pin, rc)
		}
		switch k {
		case wireQuiet:
			r.latched[rc.Port] = true
		case wireQuietOff:
			delete(r.latched, rc.Port)
		case wireExit:
			r.exitAt, r.sendExitAt = s+t.Height-t.Depth, s+1
		}
	}
	if r.hist[s] && len(pin) == 0 {
		r.out, r.active = nil, false
	} else {
		r.out, r.active = r.step(s+1, pin)
	}
	if t.IsRoot() && r.exitAt < 0 && s >= t.Height-1 && len(r.latched) == len(t.ChildPorts) && r.hist[s-t.Height+1] {
		r.exitAt, r.sendExitAt = s+t.Height, s+1
		if r.list != nil {
			if r.got = *r.list; len(r.got) > 0 {
				r.exitAt += max(len(r.got)-1, 1)
			}
		}
	}
	if r.exitAt >= 0 && s >= r.exitAt {
		if r.list != nil {
			t.stream = append(t.stream[:0], r.got...)
		}
		return congest.Request{}, false
	}
	r.s++
	return r.slot(), true
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
	lists [][]congest.Wire // each node's exit list
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
	r := quietRun{exit: make([]int, g.N()), calls: make([][]stepCall, g.N()), trees: make([]*Tree, g.N()), lists: make([][]congest.Wire, g.N())}
	stats, err := congest.RunDriven(g, onTree(func(h *congest.Host, tr *Tree) (congest.Request, congest.Driver) {
		return run(h, tr, mk(h, &r.calls[h.ID()]))
	}, then(func(h *congest.Host, tr *Tree) {
		r.exit[h.ID()], r.trees[h.ID()], r.lists[h.ID()] = h.Round(), tr, slices.Clone(tr.QuietList())
	})), opts...)
	if err != nil {
		t.Fatal(err)
	}
	r.stats = stats
	return r
}

// sameRun fails unless got matches want: Stats, every node's exit round,
// step calls and exit list.
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
		if !slices.Equal(got.lists[v], want.lists[v]) {
			t.Fatalf("%s: node %d exit list %v, reference %v", name, v, got.lists[v], want.lists[v])
		}
	}
}

// withList returns run's list form over a copy of list: every node
// passes its copy, which only the root reads.
func withList(run func(*congest.Host, *Tree, Step, *[]congest.Wire) (congest.Request, congest.Driver), list []congest.Wire) func(*congest.Host, *Tree, Step) (congest.Request, congest.Driver) {
	return func(h *congest.Host, tr *Tree, step Step) (congest.Request, congest.Driver) {
		l := slices.Clone(list)
		return run(h, tr, step, &l)
	}
}

// checkExitList fails unless a run with the root list list matches the
// reference with it, as sameRun, and extends the run without one, base,
// by exactly the list: every node holds the list in order and returns
// max(len(list)-1, 1) rounds later, all in one round, and each tree edge
// carries that many more messages (the items, the last one marking the
// end, in place of the exit wire; a lone item is followed by an end
// marker). An empty list must leave base's Stats unchanged.
func checkExitList(t *testing.T, name string, got, ref, base quietRun, list []congest.Wire) {
	t.Helper()
	sameRun(t, name, got, ref)
	n, L := len(base.exit), 0
	if len(list) > 0 {
		L = max(len(list)-1, 1)
	}
	for v := range got.exit {
		if !slices.Equal(got.lists[v], list) {
			t.Fatalf("%s: node %d holds %v, want the root's %v", name, v, got.lists[v], list)
		}
		if got.exit[v] != base.exit[v]+L || got.exit[v] != got.exit[0] {
			t.Fatalf("%s: node %d exited at round %d, want %d (without the list) + %d, node 0's %d", name, v, got.exit[v], base.exit[v], L, got.exit[0])
		}
	}
	want := *base.stats
	want.Rounds += L
	want.Messages += int64((n - 1) * L)
	if got.stats.Rounds != want.Rounds || got.stats.Messages != want.Messages || (L == 0 && !reflect.DeepEqual(got.stats, base.stats)) {
		t.Fatalf("%s: stats %+v, want those without the list %+v extended by %d slots", name, *got.stats, *base.stats, L)
	}
}

// exitList returns a list of L distinct items.
func exitList(L int) []congest.Wire {
	list := make([]congest.Wire, L)
	for i := range list {
		list[i] = intItem(100 + 7*i)
	}
	return list
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
// Some transition must ride on a payload message. With a root list of 0,
// 1 and 4 items, StartQuietList must match the reference with the list
// and extend the list-free run by exactly the list (checkExitList).
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
	merged := refMerges
	for _, tg := range graphs {
		toggled := false
		for seed := int64(0); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tg.name, seed), func(t *testing.T) {
				ref := observeQuiet(t, tg.g, seed, startQuietRef)
				toggled = toggled || ref.reactivatedTwiceInWindow()
				for _, cfg := range configs {
					sameRun(t, cfg.name, observeQuiet(t, tg.g, seed, StartQuiet, cfg.opts...), ref)
				}
				for _, L := range []int{0, 1, 4} {
					list := exitList(L)
					refL := observeQuiet(t, tg.g, seed, withList(startQuietListRef, list))
					for _, cfg := range configs {
						got := observeQuiet(t, tg.g, seed, withList(StartQuietList, list), cfg.opts...)
						checkExitList(t, fmt.Sprintf("%s/L%d", cfg.name, L), got, refL, ref, list)
					}
				}
			})
		}
		if !toggled {
			t.Errorf("%s: no node reactivated twice within one reporting window; the test lost its coverage", tg.name)
		}
	}
	if refMerges == merged {
		t.Error("no transition shared a port and a round with a payload; the test lost its coverage")
	}
}

// TestQuietMergesControl pins the one-lane wire format on both ends: a
// transition to the parent and the exit wave to the children ride on
// their port's payload as Wire.Ctl codes, a port without payload gets a
// control-only wire, and the step's own sends are left as they were; the
// receiver latches every code and hands the step the payload alone, its
// codes stripped. The exit wave never meets a payload in a run (the root
// detects only once the network is quiet), so the merge is checked here
// directly.
func TestQuietMergesControl(t *testing.T) {
	tok := func(port int, c int64, ctl uint8) congest.Send {
		return congest.Send{Port: port, Wire: congest.Wire{Kind: testTokKind, C: c, Ctl: ctl}}
	}
	tr := &Tree{Depth: 1, Height: 2, ParentPort: 0, ChildPorts: []int{1, 2}}
	newQ := func() *quietDriver {
		return &quietDriver{t: tr, lag: 1, hist: []bool{true, true}, chq: make([]bool, 3), count: 2, s: 1, exitAt: -1, sendExitAt: -1}
	}
	for _, tc := range []struct {
		name      string
		exit      bool
		out, want []congest.Send
	}{
		{"transition on payload", false, []congest.Send{tok(0, 5, 0), tok(2, 6, 0)}, []congest.Send{tok(0, 5, ctlQuiet), tok(2, 6, 0)}},
		{"transition alone", false, []congest.Send{tok(1, 5, 0)}, []congest.Send{tok(1, 5, 0), {Port: 0, Wire: congest.Wire{Kind: wireQuiet}}}},
		{"exit on payload", true, []congest.Send{tok(0, 5, 0), tok(2, 6, 0)}, []congest.Send{tok(0, 5, 0), tok(2, 6, ctlExit), {Port: 1, Wire: congest.Wire{Kind: wireExit}}}},
	} {
		q := newQ()
		if tc.exit {
			q.exitAt, q.sendExitAt = 2, 1
		}
		q.out = slices.Clone(tc.out)
		if got := q.sends(); !slices.Equal(got, tc.want) {
			t.Errorf("%s: sends %v, want %v", tc.name, got, tc.want)
		}
		if !slices.Equal(q.out, tc.out) {
			t.Errorf("%s: the step's sends became %v", tc.name, q.out)
		}
	}

	q := newQ()
	q.count, q.chq[1] = 1, true
	in := []congest.Recv{
		{Port: 0, Wire: congest.Wire{Kind: testTokKind, C: 4, Ctl: ctlExit}},
		{Port: 1, Wire: congest.Wire{Kind: testTokKind, C: 7, Ctl: ctlQuietOff}},
		{Port: 2, Wire: congest.Wire{Kind: wireQuiet}},
	}
	want := []congest.Recv{{Port: 0, Wire: congest.Wire{Kind: testTokKind, C: 4}}, {Port: 1, Wire: congest.Wire{Kind: testTokKind, C: 7}}}
	if got := q.control(in); !slices.Equal(got, want) {
		t.Fatalf("payload %v, want %v", got, want)
	}
	if q.count != 1 || q.chq[1] || !q.chq[2] || q.exitAt != 2 || q.sendExitAt != 2 {
		t.Fatalf("latched count %d, bits %v, exit at %d (send %d); want 1, [false false true], 2 (2)", q.count, q.chq, q.exitAt, q.sendExitAt)
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
