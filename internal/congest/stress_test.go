package congest

import (
	"fmt"
	"math/rand"
	"testing"

	"steinerforest/internal/graph"
)

// Scheduler stress: randomized wake/park/send interleavings across many
// nodes and rounds, replayed under every scheduler configuration — the
// continuation transport and the legacy goroutine transport, fast paths on
// and off, serial and sharded routing. Every configuration must produce
// identical Stats AND an identical per-node observation trace (a digest of
// every delivered message with its round, port, sender and payload), so a
// divergence anywhere in the park/wake/standing-order machinery is caught
// at the exact node it corrupts. The whole test runs under -race in CI,
// which additionally checks the worker-pool handoffs of both transports.

const stressWireKind uint16 = 110 // 64-bit stress payload

func init() { RegisterWireKind(stressWireKind, 64) }

// stressProgram follows a per-node seeded random schedule of exchanges,
// idles and interruptible sleeps, folding everything it observes — inbox
// contents and the rounds at which it observes them — into trace[ID].
func stressProgram(trace []uint64, steps int, seed int64) Program {
	return func(h *Host) {
		rng := rand.New(rand.NewSource(seed + int64(h.ID())*0x9E3779B9))
		acc := uint64(h.ID())*0x9E3779B97F4A7C15 + 1
		fold := func(v uint64) { acc = (acc ^ v) * 1099511628211 }
		record := func(in []Recv) {
			fold(uint64(h.Round()))
			for _, rc := range in {
				fold(uint64(rc.Port)<<40 ^ uint64(h.Neighbor(rc.Port))<<20 ^ uint64(rc.Wire.C))
			}
		}
		deg := h.Degree()
		out := make([]Send, 0, deg)
		sendSome := func() []Send {
			out = out[:0]
			for p := 0; p < deg; p++ {
				if rng.Intn(3) == 0 {
					out = append(out, Send{Port: p, Wire: Wire{Kind: stressWireKind, C: int64(rng.Intn(1 << 16))}})
				}
			}
			return out
		}
		for s := 0; s < steps; s++ {
			switch rng.Intn(8) {
			case 0, 1, 2:
				record(h.Exchange(sendSome()))
			case 3:
				record(h.Exchange(nil))
			case 4, 5:
				h.Idle(1 + rng.Intn(4))
				fold(uint64(h.Round()))
			case 6:
				// Interruptible park: mail from a neighbor cuts it short.
				record(h.SleepUntil(h.Round() + 1 + rng.Intn(6)))
			case 7:
				// Longer park; on dense graphs this is usually interrupted,
				// exercising the sleep wake queue and stamp invalidation.
				record(h.SleepUntil(h.Round() + 10))
			}
		}
		trace[h.ID()] = acc
	}
}

// stressConfigs is the scheduler configuration grid the traces must agree
// across.
var stressConfigs = []struct {
	name string
	opts []Option
}{
	{"cont/fast/p1", nil},
	{"cont/fast/p8", []Option{WithParallelism(8)}},
	{"cont/fast/nowin/p1", []Option{WithWindowRelay(false)}},
	{"cont/fast/nowin/p8", []Option{WithWindowRelay(false), WithParallelism(8)}},
	{"cont/nofast/p1", []Option{WithFastPath(false)}},
	{"cont/nofast/p8", []Option{WithFastPath(false), WithParallelism(8)}},
	{"goro/fast/p1", []Option{WithGoroutines(true)}},
	{"goro/fast/p8", []Option{WithGoroutines(true), WithParallelism(8)}},
	{"goro/nofast/p1", []Option{WithGoroutines(true), WithFastPath(false)}},
	{"goro/nofast/p8", []Option{WithGoroutines(true), WithFastPath(false), WithParallelism(8)}},
}

// TestSchedulerStress replays random interleavings on several topologies
// and seeds, requiring identical Stats and traces everywhere.
func TestSchedulerStress(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid7x7", graph.Grid(7, 7, graph.UnitWeights)},
		{"gnp40", graph.GNP(40, 0.15, graph.UnitWeights, rand.New(rand.NewSource(4)))},
		{"star16", graph.Star(16, graph.UnitWeights)},
		{"path24", graph.Path(24, graph.UnitWeights)},
	}
	steps := 40
	if testing.Short() {
		steps = 15
	}
	for _, tg := range graphs {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tg.name, seed), func(t *testing.T) {
				var refStats *Stats
				var refTrace []uint64
				for _, cfg := range stressConfigs {
					trace := make([]uint64, tg.g.N())
					stats, err := Run(tg.g, stressProgram(trace, steps, seed), cfg.opts...)
					if err != nil {
						t.Fatalf("%s: %v", cfg.name, err)
					}
					if refStats == nil {
						refStats, refTrace = stats, trace
						continue
					}
					if !statsEqual(refStats, stats) {
						t.Fatalf("%s: stats diverged: %+v vs %+v", cfg.name, refStats, stats)
					}
					for v := range trace {
						if trace[v] != refTrace[v] {
							t.Fatalf("%s: node %d observed a different history (digest %x != %x)",
								cfg.name, v, trace[v], refTrace[v])
						}
					}
				}
			})
		}
	}
}

// TestSchedulerStressStandingOrders drives the standing-order machinery —
// Standby heartbeats, Await echo counting, Relay forwarding — through a
// randomized convergecast shape on a star, again requiring identical
// behavior across the configuration grid.
func TestSchedulerStressStandingOrders(t *testing.T) {
	const leaves = 9
	g := graph.Star(leaves+1, graph.UnitWeights)
	beat := Wire{Kind: stressWireKind, C: 1}
	for seed := int64(1); seed <= 3; seed++ {
		program := func(trace []uint64) Program {
			return func(h *Host) {
				rng := rand.New(rand.NewSource(seed + int64(h.ID())*7919))
				acc := uint64(h.ID() + 1)
				fold := func(in []Recv) {
					acc = acc*31 + uint64(h.Round())
					for _, rc := range in {
						acc = acc*1099511628211 ^ uint64(rc.Port)<<32 ^ uint64(h.Neighbor(rc.Port))<<16 ^ uint64(rc.Wire.C)
					}
				}
				if h.ID() == 0 {
					// Hub: await the full echo set a few times (the waits
					// drift across beat parities, exercising both Await
					// wake conditions), then poke every leaf to break its
					// standing order so the network can terminate.
					for i := 0; i < 3; i++ {
						fold(h.Await(stressWireKind, leaves))
					}
					poke := make([]Send, leaves)
					for p := 0; p < leaves; p++ {
						poke[p] = Send{Port: p, Wire: Wire{Kind: stressWireKind, C: int64(90 + rng.Intn(9))}}
					}
					fold(h.Exchange(poke))
					h.Idle(2)
				} else {
					// Leaves: beat toward the hub on a standing order until
					// something (the poke) deviates, with a random masked
					// ramp-up.
					maskLen := rng.Intn(4)
					mask := uint64(rng.Intn(1 << uint(maskLen+1)))
					in := h.Standby(0, beat, 0, mask, maskLen)
					fold(in)
					h.Idle(1 + rng.Intn(3))
				}
				trace[h.ID()] = acc
			}
		}
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			var refStats *Stats
			var refTrace []uint64
			for _, cfg := range stressConfigs {
				trace := make([]uint64, g.N())
				stats, err := Run(g, program(trace), cfg.opts...)
				if err != nil {
					t.Fatalf("%s: %v", cfg.name, err)
				}
				if refStats == nil {
					refStats, refTrace = stats, trace
					continue
				}
				if !statsEqual(refStats, stats) {
					t.Fatalf("%s: stats diverged: %+v vs %+v", cfg.name, refStats, stats)
				}
				for v := range trace {
					if trace[v] != refTrace[v] {
						t.Fatalf("%s: node %d observed a different history", cfg.name, v)
					}
				}
			}
		})
	}
}
