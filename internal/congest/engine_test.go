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

// TestDeterminismAcrossParallelism: the sharded scheduler must be
// bit-exact: identical Stats for every parallelism level.
func TestDeterminismAcrossParallelism(t *testing.T) {
	g := graph.Grid(6, 6, graph.UnitWeights)
	serial, err := Run(g, chatterProgram(15), WithSeed(9), WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 3, 8, 64} {
		sharded, err := Run(g, chatterProgram(15), WithSeed(9), WithParallelism(p))
		if err != nil {
			t.Fatalf("parallelism %d: %v", p, err)
		}
		if !statsEqual(serial, sharded) {
			t.Fatalf("parallelism %d diverged: %+v vs %+v", p, serial, sharded)
		}
	}
}

// TestDeliveredContentAcrossParallelism checks that not only the aggregate
// Stats but every delivered message is identical under sharding, by
// folding all received values into a per-node digest.
func TestDeliveredContentAcrossParallelism(t *testing.T) {
	g := graph.GNP(30, 0.2, graph.UnitWeights, newRand(11))
	run := func(p int) []int64 {
		digest := make([]int64, g.N())
		program := func(h *Host) {
			var acc int64 = int64(h.ID())
			for r := 0; r < 10; r++ {
				out := make([]Send, 0, h.Degree())
				for q := 0; q < h.Degree(); q++ {
					if (r+q)%2 == 0 {
						out = append(out, Send{Port: q, Wire: msg(acc)})
					}
				}
				for _, rc := range h.Exchange(out) {
					acc = acc*31 + rc.Wire.C + int64(rc.Port) + int64(h.Neighbor(rc.Port))
					acc %= 1_000_000_007
				}
			}
			digest[h.ID()] = acc
		}
		if _, err := Run(g, program, WithSeed(3), WithParallelism(p)); err != nil {
			t.Fatal(err)
		}
		return digest
	}
	want := run(1)
	for _, p := range []int{4, 16} {
		got := run(p)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("parallelism %d: node %d digest %d != %d", p, v, got[v], want[v])
			}
		}
	}
}

// TestZeroAndSingleNode covers the degenerate graphs, serial and sharded.
func TestZeroAndSingleNode(t *testing.T) {
	for _, p := range []int{1, 4} {
		stats, err := Run(graph.New(0), func(h *Host) { t.Error("program ran on empty graph") },
			WithParallelism(p))
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
		}, WithParallelism(p))
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
}

// TestDroppedToTerminatedAccounting: mail to terminated nodes is counted
// per message, still accounted in Messages/Bits, and never delivered —
// identically at every parallelism level.
func TestDroppedToTerminatedAccounting(t *testing.T) {
	g := graph.Star(5, graph.UnitWeights)
	for _, p := range []int{1, 4} {
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
		stats, err := Run(g, program, WithParallelism(p))
		if err != nil {
			t.Fatal(err)
		}
		if stats.DroppedToTerminated != 16 {
			t.Errorf("parallelism %d: dropped = %d, want 16", p, stats.DroppedToTerminated)
		}
		if stats.Messages != 16 || stats.Bits != 16*64 {
			t.Errorf("parallelism %d: dropped mail not accounted: %+v", p, stats)
		}
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

// BenchmarkEngineFloodGoroutines is the same workload on the legacy
// goroutine transport — the A/B for the continuation scheduler's per-round
// channel hops and wakeups.
func BenchmarkEngineFloodGoroutines(b *testing.B) {
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
		if _, err := Run(g, program, WithGoroutines(true)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineFloodParallel is the same workload with a sharded router.
func BenchmarkEngineFloodParallel(b *testing.B) {
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
		if _, err := Run(g, program, WithParallelism(8)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDrain builds the window relay's target shape: a deep chain of
// parked RelayStream stages draining a stream whose source has gone quiet.
func benchDrain(b *testing.B, hops, items int, opts ...Option) {
	b.Helper()
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
		if _, err := Run(g, program, opts...); err != nil {
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

func BenchmarkRelayDrainWindow(b *testing.B) { benchDrain(b, 1024, 64) }
func BenchmarkRelayDrainPerRound(b *testing.B) {
	benchDrain(b, 1024, 64, WithWindowRelay(false))
}
