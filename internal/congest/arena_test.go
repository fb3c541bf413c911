package congest

import (
	"testing"

	"steinerforest/internal/graph"
)

// arenaProgram is a small but non-trivial workload for pool tests: seeded
// randomness, full-degree exchanges, and enough rounds to populate the
// standing/relay-free engine paths the arena recycles.
func arenaProgram(g *graph.Graph, out []int64) Program {
	return func(h *Host) {
		x := h.Rand().Int63n(1 << 20)
		for r := 0; r < 6; r++ {
			sends := make([]Send, 0, h.Degree())
			for p := 0; p < h.Degree(); p++ {
				sends = append(sends, Send{Port: p, Wire: msg(x)})
			}
			for _, rc := range h.Exchange(sends) {
				x = (x*31 + rc.Wire.C) % 1000003
			}
		}
		out[h.ID()] = x
	}
}

// TestArenaPoolReuseBitIdentical pins the pool's core contract: a run on
// a warm arena is bit-identical — stats and per-node program state — to a
// fresh-arena run, across repeated reuse on the same graph.
func TestArenaPoolReuseBitIdentical(t *testing.T) {
	g := graph.Grid(5, 5, graph.UnitWeights)
	fresh := make([]int64, g.N())
	want, err := Run(g, arenaProgram(g, fresh), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}

	pool := NewArenaPool()
	for run := 0; run < 3; run++ {
		got := make([]int64, g.N())
		stats, err := Run(g, arenaProgram(g, got), WithSeed(7), WithArenaPool(pool))
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
	if _, err := Run(gridA, arenaProgram(gridA, out), WithArenaPool(pool)); err != nil {
		t.Fatal(err)
	}

	// Different shape: must not reuse the parked 4x4 arena.
	path := graph.Path(8, graph.UnitWeights)
	pout := make([]int64, path.N())
	if _, err := Run(path, arenaProgram(path, pout), WithArenaPool(pool)); err != nil {
		t.Fatal(err)
	}
	if ps := pool.Stats(); ps.ColdGets != 2 || ps.WarmGets != 0 {
		t.Errorf("shape mismatch reused an arena: %+v", ps)
	}

	// Same shape, different Graph object: warm reuse, identical results.
	gridB := graph.Grid(4, 4, graph.UnitWeights)
	freshB := make([]int64, gridB.N())
	want, err := Run(gridB, arenaProgram(gridB, freshB), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	gotB := make([]int64, gridB.N())
	stats, err := Run(gridB, arenaProgram(gridB, gotB), WithSeed(3), WithArenaPool(pool))
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
	want, err := Run(g, arenaProgram(g, fresh), WithSeed(7))
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
			stats, err := Run(g, arenaProgram(g, out), WithSeed(7), WithArenaPool(pool))
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

// TestArenaPoolLegacyBypass pins the goroutine-transport exclusion: an
// aborted legacy run's node goroutines can outlive Run holding Host
// pointers, so WithGoroutines must ignore the pool entirely.
func TestArenaPoolLegacyBypass(t *testing.T) {
	g := graph.Path(6, graph.UnitWeights)
	pool := NewArenaPool()
	out := make([]int64, g.N())
	if _, err := Run(g, arenaProgram(g, out), WithArenaPool(pool), WithGoroutines(true)); err != nil {
		t.Fatal(err)
	}
	if ps := pool.Stats(); ps.WarmGets+ps.ColdGets != 0 || ps.Free != 0 {
		t.Errorf("legacy transport touched the pool: %+v", ps)
	}
}

// benchSetupProgram returns immediately: the run is pure engine setup and
// teardown, which is exactly what the warm/cold A/B below measures.
func benchSetupProgram(h *Host) {}

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
			if _, err := Run(g, benchSetupProgram); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		pool := NewArenaPool()
		if _, err := Run(g, benchSetupProgram, WithArenaPool(pool)); err != nil {
			b.Fatal(err) // prime one arena so every timed run is warm
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := Run(g, benchSetupProgram, WithArenaPool(pool)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
