package congest

import (
	"fmt"
	"math/rand"
	"testing"

	"steinerforest/internal/graph"
)

// Scheduler stress: randomized wake/park/send interleavings across many
// nodes and rounds, replayed with the fast paths on and off. Both
// configurations must produce identical Stats AND an identical per-node
// observation trace (a digest of every delivered message with its round,
// port, sender and payload), so a divergence anywhere in the
// park/wake/relay-order machinery is caught at the exact node it
// corrupts.

const (
	stressWireKind uint16 = 110 // 64-bit stress payload
	stressEndKind  uint16 = 111 // stream end marker of the relay stress
)

func init() {
	RegisterWireKind(stressWireKind, 64)
	RegisterWireKind(stressEndKind, 2)
}

// stressProgram follows a per-node seeded random schedule of exchanges,
// idles and interruptible sleeps, folding everything it observes — inbox
// contents and the rounds at which it observes them — into trace[ID].
func stressProgram(trace []uint64, steps int, seed int64) func(h *Host) (Request, Driver) {
	return func(h *Host) (Request, Driver) {
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
		s, idled := 0, false
		return Idle(0), nextFunc(func(in []Recv) (Request, bool) {
			if s > 0 {
				// Complete the previous step: an idle observes only its
				// round, everything else its inbox as well.
				if idled {
					fold(uint64(h.Round()))
				} else {
					record(in)
				}
			}
			if s == steps {
				trace[h.ID()] = acc
				return Request{}, false
			}
			s++
			idled = false
			switch rng.Intn(8) {
			case 0, 1, 2:
				return Exchange(sendSome()), true
			case 3:
				return Exchange(nil), true
			case 4, 5:
				idled = true
				return Idle(1 + rng.Intn(4)), true
			case 6:
				// Interruptible park: mail from a neighbor cuts it short.
				return SleepUntil(h.Round() + 1 + rng.Intn(6)), true
			}
			// Longer park; on dense graphs this is usually interrupted,
			// exercising the sleep wake queue and stamp invalidation.
			return SleepUntil(h.Round() + 10), true
		})
	}
}

// stressConfigs is the scheduler configuration grid the traces must agree
// across.
var stressConfigs = []struct {
	name string
	opts []Option
}{
	{"cont/fast/p1", nil},
	{"cont/nofast/p1", []Option{WithFastPath(false)}},
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
					stats, err := RunDriven(tg.g, stressProgram(trace, steps, seed), cfg.opts...)
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

// TestSchedulerStressStandingOrders drives the relay orders — RelayStream
// stages, relay-only drains, and deviation wakes — through a
// randomized tree broadcast interleaved with stray pokes (over tree and
// cross edges), again requiring identical behavior across the
// configuration grid.
func TestSchedulerStressStandingOrders(t *testing.T) {
	const n = 24
	end := Wire{Kind: stressEndKind}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := graph.New(n)
		parent := make([]int, n)
		parent[0] = -1
		for v := 1; v < n; v++ {
			parent[v] = v - 1 - rng.Intn(min(v, 3)) // deep: long drains
			g.AddEdge(parent[v], v, 1)
		}
		// Cross edges carry no stream, only pokes that deviate stages.
		for i := 0; i < n/2; i++ {
			if u, v := rng.Intn(n), rng.Intn(n); u != v {
				if _, ok := g.EdgeBetween(u, v); !ok {
					g.AddEdge(u, v, 1)
				}
			}
		}
		program := func(trace []uint64) func(h *Host) (Request, Driver) {
			return func(h *Host) (Request, Driver) {
				rng := rand.New(rand.NewSource(seed + int64(h.ID())*7919))
				acc := uint64(h.ID() + 1)
				fold := func(in []Recv) {
					acc = acc*31 + uint64(h.Round())
					for _, rc := range in {
						acc = acc*1099511628211 ^ uint64(rc.Port)<<32 ^ uint64(h.Neighbor(rc.Port))<<16 ^ uint64(rc.Wire.C)
					}
				}
				var down []int // ports to children, ascending
				src := -1
				for p := 0; p < h.Degree(); p++ {
					switch w := h.Neighbor(p); {
					case w == parent[h.ID()]:
						src = p
					case parent[w] == h.ID():
						down = append(down, p)
					}
				}
				resend := func(in []Recv) (fwd []Send, done bool) {
					for _, rc := range in {
						if rc.Port != src {
							continue
						}
						for _, p := range down {
							fwd = append(fwd, Send{Port: p, Wire: rc.Wire})
						}
						done = done || rc.Wire == end
					}
					return fwd, done
				}
				// The request the node waits on.
				const (
					sStart   = iota
					sItem    // root: a stream item's round
					sEnd     // root: the end marker's round
					sForward // stage: an opening poke, or a forward of pending items
					sRelay   // stage: a relay order
					sIdle    // the idle before a stray poke
					sPoke    // a stray poke's round
				)
				state, items, pokes := sStart, 0, -1
				var last []Recv
				done := false
				// Stray pokes at random neighbors: deviations for stages
				// still relaying, drops for finished ones.
				strays := func() (Request, bool) {
					if pokes < 0 {
						pokes = rng.Intn(4)
					}
					if pokes == 0 {
						trace[h.ID()] = acc
						return Request{}, false
					}
					pokes--
					state = sIdle
					return Idle(rng.Intn(2 * n)), true
				}
				// A stage relays until the end marker has gone through,
				// forwarding whatever a deviation wake left pending.
				forward := func() (Request, bool) {
					fwd, fin := resend(last)
					done = done || fin
					switch {
					case len(fwd) > 0:
						state = sForward
						return Exchange(fwd), true
					case done:
						return strays()
					}
					state = sRelay
					return RelayStream(src, down, end.Kind), true
				}
				return Idle(0), nextFunc(func(in []Recv) (Request, bool) {
					switch state {
					case sStart:
						if src < 0 {
							// Root: the stream source.
							items, state = 4+rng.Intn(12), sItem
							return Exchange(sendAll(down, Wire{Kind: stressWireKind, C: int64(rng.Intn(1 << 16))})), true
						}
						// Some stages open with a poke, which deviates a
						// parked neighbor that is not its child.
						if rng.Intn(3) == 0 {
							state = sForward
							return Exchange([]Send{{Port: rng.Intn(h.Degree()), Wire: poke(rng)}}), true
						}
						return forward()
					case sItem:
						fold(in)
						if items--; items >= 0 {
							return Exchange(sendAll(down, Wire{Kind: stressWireKind, C: int64(rng.Intn(1 << 16))})), true
						}
						state = sEnd
						return Exchange(sendAll(down, end)), true
					case sEnd, sPoke:
						fold(in)
						return strays()
					case sForward:
						last = in
						fold(last)
						return forward()
					case sRelay:
						relayed, rest := h.RelaySplit(in)
						done = len(relayed) > 0 && relayed[len(relayed)-1].Wire == end
						fold(relayed)
						fold(rest)
						last = rest
						return forward()
					}
					// sIdle
					state = sPoke
					return Exchange([]Send{{Port: rng.Intn(h.Degree()), Wire: poke(rng)}}), true
				})
			}
		}
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			var refStats *Stats
			var refTrace []uint64
			for _, cfg := range stressConfigs {
				trace := make([]uint64, g.N())
				stats, err := RunDriven(g, program(trace), cfg.opts...)
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

// poke is a stray stress message, distinguishable from stream items.
func poke(rng *rand.Rand) Wire {
	return Wire{Kind: stressWireKind, C: int64(1<<20 + rng.Intn(9))}
}

// sendAll addresses w to every port of ports.
func sendAll(ports []int, w Wire) []Send {
	out := make([]Send, len(ports))
	for i, p := range ports {
		out[i] = Send{Port: p, Wire: w}
	}
	return out
}
