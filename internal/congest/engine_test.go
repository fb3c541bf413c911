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
func chatterProgram(k int) func(h *Host) (Request, Driver) {
	return func(h *Host) (Request, Driver) {
		x := h.Rand().Int63n(1 << 20)
		return rounds(k+h.ID()%3, func(r int) []Send {
			out := make([]Send, 0, h.Degree())
			for p := 0; p < h.Degree(); p++ {
				if (r+p+h.ID())%3 != 0 {
					out = append(out, Send{Port: p, Wire: msg(x)})
				}
			}
			return out
		}, func(_ int, in []Recv) {
			for _, rc := range in {
				x = (x + rc.Wire.C) % 1000003
			}
		})
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
	first, err := RunDriven(g, chatterProgram(12), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := RunDriven(g, chatterProgram(12), WithSeed(5))
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
	stats, err := RunDriven(graph.New(0), func(h *Host) (Request, Driver) {
		t.Error("program ran on empty graph")
		return script()
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 0 || stats.Messages != 0 {
		t.Errorf("empty graph stats: %+v", stats)
	}
	ran := false
	stats, err = RunDriven(graph.New(1), func(h *Host) (Request, Driver) {
		ran = true
		if h.Degree() != 0 || h.N() != 1 {
			t.Error("wrong topology view")
		}
		return script(Idle(3))
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
	start := func(h *Host) (Request, Driver) {
		if h.ID() != 0 {
			return script() // leaves terminate immediately
		}
		return rounds(4, func(int) []Send { return toAll(h, msg(1)) }, func(_ int, in []Recv) {
			if len(in) != 0 {
				panic("terminated neighbors delivered mail")
			}
		})
	}
	stats, err := RunDriven(g, start)
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
	start := func(h *Host) (Request, Driver) {
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
		return script()
	}
	if _, err := RunDriven(g, start); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkEngineFlood measures the raw scheduler: a dense full-degree
// flood on a grid, the allocation profile of the routing hot path.
func BenchmarkEngineFlood(b *testing.B) {
	g := graph.Grid(20, 20, graph.UnitWeights)
	start := func(h *Host) (Request, Driver) {
		out := make([]Send, h.Degree())
		return rounds(30, func(r int) []Send {
			for p := range out {
				out[p] = Send{Port: p, Wire: msg(int64(r))}
			}
			return out
		}, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunDriven(g, start); err != nil {
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
	start := func(h *Host) (Request, Driver) {
		idleOut := func([]Recv) Request { return Idle(exitRound - h.Round()) }
		if h.ID() == 0 {
			return Chain(func() (Request, Driver) {
				return rounds(items+1, func(r int) []Send {
					if r == items {
						return []Send{{Port: 0, Wire: Wire{Kind: benchEndWire}}}
					}
					return []Send{{Port: 0, Wire: Wire{Kind: benchWire, C: int64(r)}}}
				}, nil)
			}, func() (Request, Driver) { return script(idleOut) })
		}
		var dst []int
		if h.ID() < hops-1 {
			dst = []int{1}
		}
		src, _ := h.PortOf(h.ID() - 1)
		return script(RelayStream(src, dst, benchEndWire, 0), func(in []Recv) Request {
			if stream, _ := h.RelaySplit(in); len(stream) != items+1 {
				panic("drain lost items")
			}
			return idleOut(nil)
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunDriven(g, start); err != nil {
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
