package congest

import (
	"errors"
	"strings"
	"testing"

	"steinerforest/internal/graph"
)

// testWireVal is the 64-bit value payload of the engine tests; msg
// carries v in its C slot.
const testWireVal uint16 = 104

func init() { RegisterWireKind(testWireVal, 64) }

func msg(v int64) Wire { return Wire{Kind: testWireVal, C: v} }

func TestFloodMaxID(t *testing.T) {
	// Every node floods the max ID it has seen; after D rounds all agree.
	g := graph.Path(8, graph.UnitWeights)
	results := make([]int64, g.N())
	program := func(h *Host) {
		best := int64(h.ID())
		for r := 0; r < g.N(); r++ {
			out := make([]Send, 0, h.Degree())
			for p := 0; p < h.Degree(); p++ {
				out = append(out, Send{Port: p, Wire: msg(best)})
			}
			for _, rc := range h.Exchange(out) {
				if v := rc.Wire.C; v > best {
					best = v
				}
			}
		}
		results[h.ID()] = best
	}
	stats, err := Run(g, program)
	if err != nil {
		t.Fatal(err)
	}
	for v, got := range results {
		if got != int64(g.N()-1) {
			t.Errorf("node %d converged to %d", v, got)
		}
	}
	if stats.Rounds != g.N() {
		t.Errorf("rounds = %d, want %d", stats.Rounds, g.N())
	}
	if stats.Messages == 0 || stats.Bits == 0 {
		t.Error("no traffic recorded")
	}
}

func TestDeterminism(t *testing.T) {
	g := graph.Grid(4, 4, graph.UnitWeights)
	program := func(h *Host) {
		x := h.Rand().Int63n(1000)
		for r := 0; r < 5; r++ {
			out := make([]Send, 0, h.Degree())
			for p := 0; p < h.Degree(); p++ {
				out = append(out, Send{Port: p, Wire: msg(x)})
			}
			for _, rc := range h.Exchange(out) {
				x = (x + rc.Wire.C) % 1000003
			}
		}
	}
	s1, err := Run(g, program, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Run(g, program, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if s1.Messages != s2.Messages || s1.Bits != s2.Bits || s1.Rounds != s2.Rounds {
		t.Errorf("non-deterministic stats: %+v vs %+v", s1, s2)
	}
}

func TestInboxSortedByPort(t *testing.T) {
	g := graph.Star(5, graph.UnitWeights)
	program := func(h *Host) {
		if h.ID() == 0 {
			in := h.Exchange(nil)
			prev := -1
			for _, rc := range in {
				if rc.Port <= prev {
					panic("inbox not sorted")
				}
				prev = rc.Port
			}
			if len(in) != 4 {
				panic("missing messages")
			}
			return
		}
		p, ok := h.PortOf(0)
		if !ok {
			panic("leaf lacks port to center")
		}
		h.Exchange([]Send{{Port: p, Wire: msg(int64(h.ID()))}})
	}
	if _, err := Run(g, program); err != nil {
		t.Fatal(err)
	}
}

func TestHostAccessors(t *testing.T) {
	g := graph.Path(3, func(u, v int) int64 { return int64(u + v) })
	program := func(h *Host) {
		if h.N() != 3 {
			panic("wrong n")
		}
		if h.ID() == 1 {
			if h.Degree() != 2 {
				panic("degree")
			}
			if h.Neighbor(0) != 0 || h.Neighbor(1) != 2 {
				panic("neighbors out of order")
			}
			if h.Weight(0) != 1 || h.Weight(1) != 3 {
				panic("weights")
			}
			if _, ok := h.PortOf(2); !ok {
				panic("PortOf")
			}
			if _, ok := h.PortOf(99); ok {
				panic("phantom port")
			}
		}
		if h.Round() != 0 {
			panic("initial round")
		}
		h.Idle(2)
		if h.Round() != 2 {
			panic("round after idle")
		}
	}
	if _, err := Run(g, program); err != nil {
		t.Fatal(err)
	}
}

func TestBandwidthEnforced(t *testing.T) {
	g := graph.Path(2, graph.UnitWeights)
	program := func(h *Host) {
		if h.ID() == 0 {
			h.Exchange([]Send{{Port: 0, Wire: Wire{Kind: testWireDyn, C: 100000}}})
		} else {
			h.Exchange(nil)
		}
	}
	_, err := Run(g, program)
	if !errors.Is(err, ErrBandwidth) {
		t.Fatalf("err = %v, want ErrBandwidth", err)
	}
}

func TestDuplicatePortSendFails(t *testing.T) {
	g := graph.Path(2, graph.UnitWeights)
	program := func(h *Host) {
		if h.ID() == 0 {
			h.Exchange([]Send{{Port: 0, Wire: msg(1)}, {Port: 0, Wire: msg(2)}})
		} else {
			h.Exchange(nil)
		}
	}
	if _, err := Run(g, program); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("err = %v", err)
	}
}

func TestInvalidPortFails(t *testing.T) {
	g := graph.Path(2, graph.UnitWeights)
	program := func(h *Host) {
		h.Exchange([]Send{{Port: 5, Wire: msg(1)}})
	}
	if _, err := Run(g, program); err == nil || !strings.Contains(err.Error(), "invalid port") {
		t.Fatalf("err = %v", err)
	}
}

func TestNodePanicPropagates(t *testing.T) {
	g := graph.Path(3, graph.UnitWeights)
	program := func(h *Host) {
		if h.ID() == 1 {
			panic("boom")
		}
		h.Idle(10)
	}
	_, err := Run(g, program)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
}

func TestRoundLimit(t *testing.T) {
	g := graph.Path(2, graph.UnitWeights)
	program := func(h *Host) {
		for {
			h.Exchange(nil)
		}
	}
	_, err := Run(g, program, WithMaxRounds(50))
	if !errors.Is(err, ErrRoundLimit) {
		t.Fatalf("err = %v, want ErrRoundLimit", err)
	}
}

func TestStaggeredTerminationDropsMail(t *testing.T) {
	// Node 1 exits immediately; node 0 keeps sending to it.
	g := graph.Path(2, graph.UnitWeights)
	program := func(h *Host) {
		if h.ID() == 1 {
			return
		}
		for r := 0; r < 3; r++ {
			h.Exchange([]Send{{Port: 0, Wire: msg(9)}})
		}
	}
	stats, err := Run(g, program)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DroppedToTerminated != 3 {
		t.Errorf("dropped = %d, want 3", stats.DroppedToTerminated)
	}
}

func TestEdgeTracking(t *testing.T) {
	g := graph.Path(3, graph.UnitWeights)
	program := func(h *Host) {
		if h.ID() == 0 {
			h.Exchange([]Send{{Port: 0, Wire: msg(1)}})
			return
		}
		h.Exchange(nil)
	}
	stats, err := Run(g, program, WithEdgeTracking())
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.EdgeBits) != g.M() {
		t.Fatalf("EdgeBits len = %d", len(stats.EdgeBits))
	}
	if stats.EdgeBits[0] != 64 || stats.EdgeBits[1] != 0 {
		t.Errorf("EdgeBits = %v", stats.EdgeBits)
	}
}

func TestEmptyGraph(t *testing.T) {
	stats, err := Run(graph.New(0), func(h *Host) {})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 0 {
		t.Errorf("rounds = %d", stats.Rounds)
	}
}

func TestIsolatedNodes(t *testing.T) {
	g := graph.New(3) // no edges at all
	stats, err := Run(g, func(h *Host) { h.Idle(2) })
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 2 || stats.Messages != 0 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestDefaultBandwidth(t *testing.T) {
	if b := DefaultBandwidth(1000); b < 32*10 {
		t.Errorf("bandwidth for n=1000 = %d", b)
	}
	if b := DefaultBandwidth(2); b != 32*8 {
		t.Errorf("small-n floor = %d", b)
	}
}

func TestPerNodeRandDiffers(t *testing.T) {
	g := graph.Path(4, graph.UnitWeights)
	vals := make([]int64, 4)
	program := func(h *Host) {
		vals[h.ID()] = h.Rand().Int63()
	}
	if _, err := Run(g, program, WithSeed(3)); err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	for _, v := range vals {
		if seen[v] {
			t.Fatalf("duplicate random streams: %v", vals)
		}
		seen[v] = true
	}
}

func TestNilMessageFails(t *testing.T) {
	g := graph.Path(2, graph.UnitWeights)
	program := func(h *Host) {
		h.Exchange([]Send{{Port: 0}})
	}
	if _, err := Run(g, program); err == nil || !strings.Contains(err.Error(), "nil message") {
		t.Fatalf("err = %v", err)
	}
}
