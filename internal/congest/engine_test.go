package congest

import (
	"math/rand"
	"testing"

	"steinerforest/internal/graph"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// chatterProgram is a deterministic workload that exercises every engine
// path: full-degree exchanges, RNG draws, staggered termination, and mail
// sent to nodes that have already terminated.
func chatterProgram(rounds int) Program {
	return func(h *Host) {
		x := h.Rand().Int63n(1 << 20)
		for r := 0; r < rounds+h.ID()%3; r++ {
			out := make([]Send, 0, h.Degree())
			for p := 0; p < h.Degree(); p++ {
				if (r+p+h.ID())%3 != 0 {
					out = append(out, Send{Port: p, Wire: msg(x)})
				}
			}
			for _, rc := range h.Exchange(out) {
				x = (x + rc.Wire.C) % 1000003
			}
		}
	}
}

func statsEqual(a, b *Stats) bool {
	return a.Rounds == b.Rounds && a.Messages == b.Messages && a.Bits == b.Bits &&
		a.MaxMessageBits == b.MaxMessageBits && a.DroppedToTerminated == b.DroppedToTerminated
}

// TestDeterminismGoldenAcrossRuns: same seed, same program => identical
// Stats on repeated runs.
func TestDeterminismGoldenAcrossRuns(t *testing.T) {
	g := graph.Grid(5, 5, graph.UnitWeights)
	first, err := Run(g, chatterProgram(12), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := Run(g, chatterProgram(12), WithSeed(5))
		if err != nil {
			t.Fatal(err)
		}
		if !statsEqual(first, again) {
			t.Fatalf("run %d diverged: %+v vs %+v", i, first, again)
		}
	}
}

// TestZeroAndSingleNode covers the degenerate graphs.
func TestZeroAndSingleNode(t *testing.T) {
	stats, err := Run(graph.New(0), func(h *Host) { t.Error("program ran on empty graph") })
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 0 || stats.Messages != 0 {
		t.Errorf("empty graph stats: %+v", stats)
	}
	ran := false
	stats, err = Run(graph.New(1), func(h *Host) {
		ran = true
		if h.Degree() != 0 || h.N() != 1 {
			t.Error("wrong topology view")
		}
		h.Idle(3)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("single-node program did not run")
	}
	if stats.Rounds != 3 || stats.Messages != 0 {
		t.Errorf("single node stats: %+v", stats)
	}
}

// TestDroppedToTerminatedAccounting: mail to terminated nodes is counted
// per message, still accounted in Messages/Bits, and never delivered.
func TestDroppedToTerminatedAccounting(t *testing.T) {
	g := graph.Star(5, graph.UnitWeights)
	program := func(h *Host) {
		if h.ID() != 0 {
			return // leaves terminate immediately
		}
		for r := 0; r < 4; r++ {
			out := make([]Send, 0, h.Degree())
			for q := 0; q < h.Degree(); q++ {
				out = append(out, Send{Port: q, Wire: msg(1)})
			}
			if in := h.Exchange(out); len(in) != 0 {
				panic("terminated neighbors delivered mail")
			}
		}
	}
	stats, err := Run(g, program)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DroppedToTerminated != 16 {
		t.Errorf("dropped = %d, want 16", stats.DroppedToTerminated)
	}
	if stats.Messages != 16 || stats.Bits != 16*64 {
		t.Errorf("dropped mail not accounted: %+v", stats)
	}
}

// TestPortOfBinarySearch pins the binary-search port lookup against the
// adjacency lists.
func TestPortOfBinarySearch(t *testing.T) {
	g := graph.GNP(25, 0.3, graph.UnitWeights, newRand(7))
	program := func(h *Host) {
		seen := make(map[int]bool)
		for p := 0; p < h.Degree(); p++ {
			nb := h.Neighbor(p)
			seen[nb] = true
			got, ok := h.PortOf(nb)
			if !ok || got != p {
				panic("PortOf disagrees with port enumeration")
			}
		}
		for v := 0; v < h.N(); v++ {
			if _, ok := h.PortOf(v); ok != seen[v] {
				panic("PortOf phantom or missing neighbor")
			}
		}
	}
	if _, err := Run(g, program); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkEngineFlood measures the raw scheduler: a dense full-degree
// flood on a grid, the allocation profile of the routing hot path.
func BenchmarkEngineFlood(b *testing.B) {
	g := graph.Grid(20, 20, graph.UnitWeights)
	program := func(h *Host) {
		out := make([]Send, h.Degree())
		for r := 0; r < 30; r++ {
			for p := 0; p < h.Degree(); p++ {
				out[p] = Send{Port: p, Wire: msg(int64(r))}
			}
			h.Exchange(out)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(g, program); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRelayDrain times a deep chain of parked RelayStream stages
// draining a stream whose source has gone quiet: rounds whose only traffic
// is relay forwards.
func BenchmarkRelayDrain(b *testing.B) {
	const hops, items = 1024, 64
	g := graph.Path(hops, graph.UnitWeights)
	exitRound := items + hops
	program := func(h *Host) {
		if h.ID() == 0 {
			for v := 0; v < items; v++ {
				h.Exchange([]Send{{Port: 0, Wire: Wire{Kind: benchWire, C: int64(v)}}})
			}
			h.Exchange([]Send{{Port: 0, Wire: Wire{Kind: benchEndWire}}})
			h.Idle(exitRound - h.Round())
			return
		}
		var dst []int
		if h.ID() < hops-1 {
			dst = []int{1}
		}
		src, _ := h.PortOf(h.ID() - 1)
		stream, _ := h.RelayStream(src, dst, benchEndWire)
		if len(stream) != items+1 {
			panic("drain lost items")
		}
		h.Idle(exitRound - h.Round())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(g, program); err != nil {
			b.Fatal(err)
		}
	}
}

const (
	benchWire    uint16 = 115
	benchEndWire uint16 = 116
)

func init() {
	RegisterWireKind(benchWire, 64)
	RegisterWireKind(benchEndWire, 2)
}
