package congest

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"steinerforest/internal/graph"
)

// arenaProgram is a small but non-trivial workload for pool tests: seeded
// randomness, full-degree exchanges, and enough rounds to populate the
// standing/relay-free engine paths the arena recycles.
func arenaProgram(g *graph.Graph, out []int64) func(h *Host) (Request, Driver) {
	return func(h *Host) (Request, Driver) {
		x := h.Rand().Int63n(1 << 20)
		return rounds(6, func(int) []Send { return toAll(h, msg(x)) }, func(_ int, in []Recv) {
			for _, rc := range in {
				x = (x*31 + rc.Wire.C) % 1000003
			}
			out[h.ID()] = x
		})
	}
}

// TestArenaPoolReuseBitIdentical pins the pool's core contract: a run on
// a warm arena is bit-identical — stats and per-node program state — to a
// fresh-arena run, across repeated reuse on the same graph.
func TestArenaPoolReuseBitIdentical(t *testing.T) {
	g := graph.Grid(5, 5, graph.UnitWeights)
	fresh := make([]int64, g.N())
	want, err := RunDriven(g, arenaProgram(g, fresh), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}

	pool := NewArenaPool()
	for run := 0; run < 3; run++ {
		got := make([]int64, g.N())
		stats, err := RunDriven(g, arenaProgram(g, got), WithSeed(7), WithArenaPool(pool))
		if err != nil {
			t.Fatalf("pooled run %d: %v", run, err)
		}
		if stats.Rounds != want.Rounds || stats.Messages != want.Messages || stats.Bits != want.Bits ||
			stats.MaxMessageBits != want.MaxMessageBits {
			t.Errorf("pooled run %d stats diverged: %+v vs %+v", run, stats, want)
		}
		for v := range got {
			if got[v] != fresh[v] {
				t.Fatalf("pooled run %d: node %d state %d != fresh %d", run, v, got[v], fresh[v])
			}
		}
	}
	ps := pool.Stats()
	if ps.ColdGets != 1 || ps.WarmGets != 2 {
		t.Errorf("pool stats %+v, want 1 cold then 2 warm", ps)
	}
	if ps.Free != 1 {
		t.Errorf("pool holds %d arenas, want the single recycled one", ps.Free)
	}
}

// TestArenaPoolShapeAndGraphIdentity pins the reuse keys: a different
// (n, P) shape allocates cold; an equal-shape but distinct graph reuses
// the arena warm and still answers identically to a fresh run (the
// return-port table is keyed by CSR identity and must rebuild).
func TestArenaPoolShapeAndGraphIdentity(t *testing.T) {
	pool := NewArenaPool()
	gridA := graph.Grid(4, 4, graph.UnitWeights)
	out := make([]int64, gridA.N())
	if _, err := RunDriven(gridA, arenaProgram(gridA, out), WithArenaPool(pool)); err != nil {
		t.Fatal(err)
	}

	// Different shape: must not reuse the parked 4x4 arena.
	path := graph.Path(8, graph.UnitWeights)
	pout := make([]int64, path.N())
	if _, err := RunDriven(path, arenaProgram(path, pout), WithArenaPool(pool)); err != nil {
		t.Fatal(err)
	}
	if ps := pool.Stats(); ps.ColdGets != 2 || ps.WarmGets != 0 {
		t.Errorf("shape mismatch reused an arena: %+v", ps)
	}

	// Same shape, different Graph object: warm reuse, identical results.
	gridB := graph.Grid(4, 4, graph.UnitWeights)
	freshB := make([]int64, gridB.N())
	want, err := RunDriven(gridB, arenaProgram(gridB, freshB), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	gotB := make([]int64, gridB.N())
	stats, err := RunDriven(gridB, arenaProgram(gridB, gotB), WithSeed(3), WithArenaPool(pool))
	if err != nil {
		t.Fatal(err)
	}
	if ps := pool.Stats(); ps.WarmGets != 1 {
		t.Errorf("equal-shape distinct graph did not reuse warm: %+v", ps)
	}
	if stats.Messages != want.Messages || stats.Bits != want.Bits || stats.Rounds != want.Rounds {
		t.Errorf("warm run on distinct graph diverged: %+v vs %+v", stats, want)
	}
	for v := range gotB {
		if gotB[v] != freshB[v] {
			t.Fatalf("node %d state %d != fresh %d", v, gotB[v], freshB[v])
		}
	}
}

// TestArenaPoolConcurrent (run under -race in CI) hammers one pool from
// concurrent Runs: each run owns its arena exclusively, so every result
// must match the fresh reference bit-for-bit.
func TestArenaPoolConcurrent(t *testing.T) {
	g := graph.Grid(5, 5, graph.UnitWeights)
	fresh := make([]int64, g.N())
	want, err := RunDriven(g, arenaProgram(g, fresh), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	pool := NewArenaPool()
	const runs = 8
	errs := make(chan error, runs)
	outs := make([][]int64, runs)
	for i := 0; i < runs; i++ {
		outs[i] = make([]int64, g.N())
		go func(out []int64) {
			stats, err := RunDriven(g, arenaProgram(g, out), WithSeed(7), WithArenaPool(pool))
			if err == nil && (stats.Messages != want.Messages || stats.Rounds != want.Rounds) {
				t.Errorf("concurrent pooled stats diverged: %+v vs %+v", stats, want)
			}
			errs <- err
		}(outs[i])
	}
	for i := 0; i < runs; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for i, out := range outs {
		for v := range out {
			if out[v] != fresh[v] {
				t.Fatalf("run %d: node %d state %d != fresh %d", i, v, out[v], fresh[v])
			}
		}
	}
	ps := pool.Stats()
	if ps.WarmGets+ps.ColdGets != runs {
		t.Errorf("pool saw %d gets, want %d: %+v", ps.WarmGets+ps.ColdGets, runs, ps)
	}
}

// benchSetupProgram returns immediately: the run is pure engine setup and
// teardown, which is exactly what the warm/cold A/B below measures.
func benchSetupProgram(h *Host) (Request, Driver) { return Idle(0), done }

// BenchmarkArenaSetup is the committed A/B for the acceptance criterion:
// on a resident n=10^5 instance, warm acquisitions must allocate far less
// than cold ones (the n- and P-sized tables are recycled, and the
// return-port table is not rebuilt on the same frozen graph).
func BenchmarkArenaSetup(b *testing.B) {
	side := 317 // 317^2 = 100489 nodes ≈ the resident n=1e5 serving instance
	g := graph.Grid(side, side, graph.UnitWeights)
	g.Offsets() // freeze outside the timed region

	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := RunDriven(g, benchSetupProgram); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		pool := NewArenaPool()
		if _, err := RunDriven(g, benchSetupProgram, WithArenaPool(pool)); err != nil {
			b.Fatal(err) // prime one arena so every timed run is warm
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := RunDriven(g, benchSetupProgram, WithArenaPool(pool)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestArenaPoolDropsRunState pins that a pooled arena keeps nothing of a
// finished run alive: each node's last exchange sends from a buffer inside
// node state reachable only through that send and the node's driver, and
// after the run every such state must be collectable while the pool still
// holds the arena.
func TestArenaPoolDropsRunState(t *testing.T) {
	type nodeState struct{ sends [2]Send }
	g := graph.Grid(3, 3, graph.UnitWeights)
	pool := NewArenaPool()
	var freed atomic.Int32
	_, err := RunDriven(g, func(h *Host) (Request, Driver) {
		st := &nodeState{}
		runtime.SetFinalizer(st, func(*nodeState) { freed.Add(1) })
		st.sends[0] = Send{Port: 0, Wire: msg(1)}
		return Exchange(st.sends[:1]), &lastExchange{out: st.sends[:1]}
	}, WithArenaPool(pool))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50 && int(freed.Load()) < g.N(); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := int(freed.Load()); got < g.N() {
		t.Fatalf("%d of %d node states collected; the pooled arena retains the rest", got, g.N())
	}
	runtime.KeepAlive(pool)
}

// lastExchange is a Driver that sends out once more and then finishes.
type lastExchange struct {
	out  []Send
	sent bool
}

func (d *lastExchange) Next([]Recv) (Request, bool) {
	if d.sent {
		return Request{}, false
	}
	d.sent = true
	return Exchange(d.out), true
}

// TestRelayBufferReuse: a stage's relay orders in one run refill one
// stream buffer, and a pooled arena hands none of it to the next run —
// only its capacity, which sizes the next run's first buffer.
func TestRelayBufferReuse(t *testing.T) {
	g := graph.Path(3, graph.UnitWeights)
	sizes := []int{3, 9, 2} // items per stream: grow, then refill
	pool := NewArenaPool()
	run := func() (heads []*Recv, caps []int) {
		_, err := RunDriven(g, func(h *Host) (Request, Driver) {
			var steps []any
			for _, k := range sizes {
				switch h.ID() {
				case 0:
					for i := 0; i < k; i++ {
						steps = append(steps, Exchange([]Send{{Port: 0, Wire: msg(int64(i))}}))
					}
					steps = append(steps, Exchange([]Send{{Port: 0, Wire: Wire{Kind: testWireEnd}}}),
						Idle(3)) // until both stages have placed their next order
				case 1:
					steps = append(steps, RelayStream(0, []int{1}, testWireEnd), func(in []Recv) Request {
						stream, _ := h.RelaySplit(in)
						if len(stream) != k+1 || stream[k-1].Wire.C != int64(k-1) {
							panic("relay stream corrupted")
						}
						heads, caps = append(heads, &stream[0]), append(caps, cap(stream))
						return Request{}
					})
				case 2:
					steps = append(steps, RelayStream(0, nil, testWireEnd), func(in []Recv) Request {
						if stream, _ := h.RelaySplit(in); len(stream) != k+1 {
							panic("relay stream corrupted")
						}
						return Request{}
					})
				}
			}
			return script(steps...)
		}, WithArenaPool(pool))
		if err != nil {
			t.Fatal(err)
		}
		return heads, caps
	}
	heads, caps := run()
	if heads[2] != heads[1] {
		t.Fatal("the stage's third relay order did not reuse its stream buffer")
	}
	for i, rl := range pool.free[0].relays {
		if rl.buf != nil {
			t.Fatalf("the pooled arena keeps node %d's stream buffer", i)
		}
	}
	if _, warm := run(); warm[0] != caps[1] {
		t.Fatalf("warm first buffer has capacity %d, want the previous run's %d", warm[0], caps[1])
	}
}
