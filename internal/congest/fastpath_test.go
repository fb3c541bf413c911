package congest

import (
	"errors"
	"strings"
	"testing"

	"steinerforest/internal/graph"
)

// Test wire kinds (the 100+ range is reserved for tests).
const (
	testWireFixed uint16 = 100 // fixed 48-bit payload
	testWireDyn   uint16 = 101 // dynamic width: 8 + C
	testWireRelay uint16 = 102
	testWireEnd   uint16 = 103
)

func init() {
	RegisterWireKind(testWireFixed, 48)
	RegisterWireKindFunc(testWireDyn, func(w Wire) int { return 8 + int(w.C) })
	RegisterWireKind(testWireRelay, 16)
	RegisterWireKind(testWireEnd, 2)
}

// both runs a program with the fast paths on (window relay batched and
// per-round) and off, requiring identical Stats everywhere.
func both(t *testing.T, g *graph.Graph, program Program, opts ...Option) *Stats {
	t.Helper()
	fast, err := Run(g, program, opts...)
	if err != nil {
		t.Fatalf("fast: %v", err)
	}
	nowin, err := Run(g, program, append(opts, WithWindowRelay(false))...)
	if err != nil {
		t.Fatalf("no-window: %v", err)
	}
	if !statsEqual(fast, nowin) {
		t.Fatalf("window relay changed the run: %+v vs %+v", fast, nowin)
	}
	slow, err := Run(g, program, append(opts, WithFastPath(false))...)
	if err != nil {
		t.Fatalf("no-fast: %v", err)
	}
	if !statsEqual(fast, slow) {
		t.Fatalf("fast paths changed the run: %+v vs %+v", fast, slow)
	}
	return fast
}

// TestSleepWakesOnMessage: a sleeping node is woken exactly in the round a
// message reaches it, with the correct inbox and round counter.
func TestSleepWakesOnMessage(t *testing.T) {
	g := graph.Path(2, graph.UnitWeights)
	stats := both(t, g, func(h *Host) {
		if h.ID() == 0 {
			h.Idle(7)
			h.Exchange([]Send{{Port: 0, Wire: Wire{Kind: testWireFixed, C: 42}}})
			return
		}
		in := h.Sleep()
		if len(in) != 1 || in[0].Wire.C != 42 || h.Neighbor(in[0].Port) != 0 {
			panic("wrong wake inbox")
		}
		if h.Round() != 8 {
			panic("sleeper woke at the wrong round")
		}
	})
	if stats.Rounds != 8 || stats.Messages != 1 || stats.Bits != 48 {
		t.Fatalf("stats = %+v", stats)
	}
}

// TestIdleAcrossBulkAdvance: with every node parked, the clock jumps to
// the earliest wake round in one step and staggered wake-ups line up.
func TestIdleAcrossBulkAdvance(t *testing.T) {
	g := graph.Path(3, graph.UnitWeights)
	stats := both(t, g, func(h *Host) {
		h.Idle(100 + 50*h.ID()) // deadlines 100, 150, 200
		if h.Round() != 100+50*h.ID() {
			panic("idle returned at the wrong round")
		}
		h.Idle(200 - h.Round()) // realign
		if h.ID() == 1 {
			h.Exchange([]Send{{Port: 0, Wire: Wire{Kind: testWireFixed}}, {Port: 1, Wire: Wire{Kind: testWireFixed}}})
		} else if len(h.Sleep()) != 1 {
			panic("no message after bulk advance")
		}
	})
	if stats.Rounds != 201 || stats.Messages != 2 {
		t.Fatalf("stats = %+v", stats)
	}
}

// TestSleepUntilDeadline: SleepUntil returns nil at its deadline when no
// message arrives, and the inbox when one does.
func TestSleepUntilDeadline(t *testing.T) {
	g := graph.Path(2, graph.UnitWeights)
	both(t, g, func(h *Host) {
		if h.ID() == 0 {
			if in := h.SleepUntil(5); in != nil || h.Round() != 5 {
				panic("deadline sleep misbehaved")
			}
			h.Exchange([]Send{{Port: 0, Wire: Wire{Kind: testWireFixed, C: 7}}})
			return
		}
		in := h.SleepUntil(50) // message at round 5 interrupts
		if len(in) != 1 || in[0].Wire.C != 7 || h.Round() != 6 {
			panic("message did not interrupt SleepUntil")
		}
		h.Idle(44)
	})
}

// TestWireBitsAccounting pins the width table: fixed kinds, dynamic kinds,
// and the bandwidth ceiling.
func TestWireBitsAccounting(t *testing.T) {
	g := graph.Path(2, graph.UnitWeights)
	stats := both(t, g, func(h *Host) {
		if h.ID() != 0 {
			h.Idle(2)
			return
		}
		h.Exchange([]Send{{Port: 0, Wire: Wire{Kind: testWireFixed}}})
		h.Exchange([]Send{{Port: 0, Wire: Wire{Kind: testWireDyn, C: 100}}})
	})
	if stats.Bits != 48+108 || stats.MaxMessageBits != 108 {
		t.Fatalf("wire bit accounting: %+v", stats)
	}
	if (Wire{Kind: testWireDyn, C: 1}).Bits() != 9 {
		t.Fatal("Wire.Bits dynamic lookup")
	}
	_, err := Run(g, func(h *Host) {
		h.Exchange([]Send{{Port: 0, Wire: Wire{Kind: testWireDyn, C: 1 << 20}}})
	})
	if !errors.Is(err, ErrBandwidth) {
		t.Fatalf("oversized wire: %v", err)
	}
}

// TestBandwidthValidatedAtSetup: a budget below the widest registered
// fixed-width wire kind fails Run immediately with a clear error, instead
// of erroring (or worse) deep into the protocol at the first wide send.
func TestBandwidthValidatedAtSetup(t *testing.T) {
	g := graph.Path(2, graph.UnitWeights)
	ran := false
	_, err := Run(g, func(h *Host) { ran = true }, WithBandwidth(4))
	if !errors.Is(err, ErrBandwidth) || err == nil || !strings.Contains(err.Error(), "widest registered wire kind") {
		t.Fatalf("setup validation: %v", err)
	}
	if ran {
		t.Fatal("programs ran despite an unusable bandwidth budget")
	}
	// A budget that fits every registered kind passes setup (and the run).
	if _, err := Run(g, func(h *Host) {}, WithBandwidth(256)); err != nil {
		t.Fatalf("valid budget rejected: %v", err)
	}
}

// TestWireSendValidation: unregistered kinds fail.
func TestWireSendValidation(t *testing.T) {
	g := graph.Path(2, graph.UnitWeights)
	_, err := Run(g, func(h *Host) {
		h.Exchange([]Send{{Port: 0, Wire: Wire{Kind: 250}}})
	})
	if err == nil || !strings.Contains(err.Error(), "unregistered wire kind") {
		t.Fatalf("unregistered kind: %v", err)
	}
}

// TestAllAsleepFails: a network where every node sleeps unboundedly is a
// protocol bug the fast path reports instead of spinning.
func TestAllAsleepFails(t *testing.T) {
	g := graph.Path(2, graph.UnitWeights)
	_, err := Run(g, func(h *Host) { h.Sleep() })
	if !errors.Is(err, ErrAsleep) {
		t.Fatalf("err = %v, want ErrAsleep", err)
	}
	// The Exchange-loop equivalent runs into the round cap instead.
	_, err = Run(g, func(h *Host) { h.Sleep() }, WithFastPath(false), WithMaxRounds(64))
	if !errors.Is(err, ErrRoundLimit) {
		t.Fatalf("err = %v, want ErrRoundLimit", err)
	}
}

// TestStandbyHeartbeat: a chain of standing nodes keeps per-slot quiet
// bits flowing without waking, deviations wake exactly the right nodes,
// and the message accounting matches the exchange-loop equivalent.
func TestStandbyHeartbeat(t *testing.T) {
	// Path 0-1-2: node 2 stands by beating toward 1; node 1 stands by
	// beating toward 0 expecting 2's echo; node 0 collects, then sends a
	// payload to wake the chain.
	g := graph.Path(3, graph.UnitWeights)
	beat := Wire{Kind: testWireFixed}
	stats := both(t, g, func(h *Host) {
		switch h.ID() {
		case 2:
			in := h.Standby(0, beat, 0, 0, 0)
			if len(in) != 1 || in[0].Wire.Kind != testWireRelay {
				panic("leaf woke on the wrong inbox")
			}
		case 1:
			in := h.Standby(0, beat, 1, 0, 0)
			// Woken by the payload from 0 in an off round.
			if len(in) != 1 || in[0].Wire.Kind != testWireRelay || h.Neighbor(in[0].Port) != 0 {
				panic("middle woke on the wrong inbox")
			}
			// Pass the wake downstream in the next off round.
			h.Idle(1)
			h.Exchange([]Send{{Port: 1, Wire: Wire{Kind: testWireRelay}}})
		case 0:
			// Let 4 heartbeat slots elapse, counting echoes from node 1.
			echoes := 0
			for h.Round() < 8 {
				for _, rc := range h.SleepUntil(8) {
					if rc.Wire.Kind == testWireFixed {
						echoes++
					}
				}
			}
			if echoes != 4 {
				panic("missing heartbeats at the root")
			}
			h.Exchange([]Send{{Port: 0, Wire: Wire{Kind: testWireRelay}}})
		}
	})
	// Heartbeats: node 2 beats rounds 1,3,5,7 then wakes at 8 and..., node
	// 1 beats rounds 1,3,5,7, plus the two relay payloads.
	if stats.Messages < 8 {
		t.Fatalf("heartbeats not emitted: %+v", stats)
	}
}

// TestStandbyMaskRampUp: mask bits suppress exactly the flagged ramp-up
// heartbeats.
func TestStandbyMaskRampUp(t *testing.T) {
	g := graph.Path(2, graph.UnitWeights)
	stats := both(t, g, func(h *Host) {
		if h.ID() == 1 {
			// Beat rounds are 1,3,5,7,...; mask 0b101 over 3 slots drops
			// the second beat. Wake comes from node 0's payload.
			in := h.Standby(0, Wire{Kind: testWireFixed}, 0, 0b101, 3)
			if len(in) != 1 || in[0].Wire.Kind != testWireRelay {
				panic("masked standby woke wrongly")
			}
			return
		}
		beats := 0
		for h.Round() < 9 {
			for _, rc := range h.SleepUntil(9) {
				if rc.Wire.Kind == testWireFixed {
					beats++
				}
			}
		}
		// Slots 0,2,3 beat (mask bit 1 clear, everything past the mask
		// beats): rounds 1,5,7 within the first 9 rounds.
		if beats != 3 {
			panic("mask did not shape the beats")
		}
		h.Exchange([]Send{{Port: 0, Wire: Wire{Kind: testWireRelay}}})
	})
	// Beats land in rounds 1, 5, 7 and in round 9 (emitted before the
	// payload's deviation wakes the stander), plus the payload itself.
	if stats.Messages != 5 {
		t.Fatalf("stats = %+v", stats)
	}
}

// TestAwaitFullCount: partial echo sets are consumed in place; the full
// set wakes the waiter.
func TestAwaitFullCount(t *testing.T) {
	g := graph.Star(4, graph.UnitWeights) // 4 nodes: center 0, leaves 1..3
	stats := both(t, g, func(h *Host) {
		if h.ID() == 0 {
			in := h.Await(testWireFixed, 3)
			if len(in) != 3 {
				panic("await woke early or late")
			}
			if h.Round() != 6 {
				panic("await woke at the wrong round")
			}
			return
		}
		// Leaves send staggered partial echoes on heartbeat rounds 1, 3,
		// 5: round 1 has one echo, round 3 two, round 5 all three.
		for _, r := range []int{1, 3, 5} {
			h.SleepUntil(r)
			if h.ID() <= (r+1)/2 {
				h.Exchange([]Send{{Port: 0, Wire: Wire{Kind: testWireFixed}}})
			} else {
				h.Idle(1)
			}
		}
	})
	if stats.Messages != 6 {
		t.Fatalf("stats = %+v", stats)
	}
}

// TestRelayPipeline: a chain relays a stream end to end inside the engine,
// every hop adding one round of latency, with the data intact.
func TestRelayPipeline(t *testing.T) {
	const hops = 5
	g := graph.Path(hops, graph.UnitWeights)
	items := []int64{7, 11, 13}
	stats := both(t, g, func(h *Host) {
		if h.ID() == 0 {
			for _, v := range items {
				h.Exchange([]Send{{Port: 0, Wire: Wire{Kind: testWireRelay, C: v}}})
			}
			h.Exchange([]Send{{Port: 0, Wire: Wire{Kind: testWireEnd}}})
			h.Idle(hops - 2)
			return
		}
		var dst []int
		if h.ID() < hops-1 {
			dst = []int{1} // port 1 leads to the next hop
		}
		src, _ := h.PortOf(h.ID() - 1)
		relayed, last := h.Relay(src, dst, testWireEnd)
		if len(relayed) != len(items) {
			panic("relay lost items")
		}
		for i, rc := range relayed {
			if rc.Wire.C != items[i] {
				panic("relay reordered items")
			}
		}
		if len(last) != 1 || last[0].Wire.Kind != testWireEnd {
			panic("relay end marker missing")
		}
		// End arrived h.ID() rounds after node 0 sent it.
		if h.Round() != len(items)+1+h.ID()-1 {
			panic("relay latency wrong")
		}
		if len(dst) > 0 {
			h.Exchange([]Send{{Port: 1, Wire: Wire{Kind: testWireEnd}}})
		}
		h.Idle(len(items) + hops - 1 - h.Round())
	})
	// (items+end) messages per hop.
	if stats.Messages != int64((len(items)+1)*(hops-1)) {
		t.Fatalf("stats = %+v", stats)
	}
}

// TestRelayWindowDrain: once the stream source goes quiet, the in-flight
// window drains through a chain of parked relays — the regime the engine
// batches into internal relay-only rounds. The three variants pin the
// window's exits: a clean drain to the end marker, a sleeper at the chain's
// end whose wake dirties every round mid-stream, and an idle deadline
// firing inside the window. Stats must be identical with the window relay
// on, off, and with the fast paths off entirely (via both).
func TestRelayWindowDrain(t *testing.T) {
	const hops = 12
	items := make([]int64, 8)
	for i := range items {
		items[i] = int64(3*i + 1)
	}
	g := graph.Path(hops, graph.UnitWeights)
	streamEnd := len(items) + 1 // round after node 0's end marker
	exitRound := len(items) + hops - 1

	chain := func(h *Host, lastSleeps, rootNaps bool) {
		switch {
		case h.ID() == 0:
			for _, v := range items {
				h.Exchange([]Send{{Port: 0, Wire: Wire{Kind: testWireRelay, C: v}}})
			}
			h.Exchange([]Send{{Port: 0, Wire: Wire{Kind: testWireEnd}}})
			if rootNaps {
				// One-round naps: every drain round ends with a deadline
				// wake, so the window breaks after each internal round.
				for h.Round() < exitRound {
					h.Idle(1)
				}
			} else {
				h.Idle(exitRound - h.Round())
			}
		case h.ID() == hops-1 && lastSleeps:
			// The chain's end consumes the stream awake: every arrival is
			// a sleeper wake, dirtying the window mid-stream.
			got := 0
			for got <= len(items) {
				got += len(h.Sleep())
			}
			h.Idle(exitRound - h.Round())
		default:
			var dst []int
			if h.ID() < hops-1 {
				dst = []int{1}
			}
			src, _ := h.PortOf(h.ID() - 1)
			stream, last := h.RelayStream(src, dst, testWireEnd)
			if len(stream) != len(items)+1 || stream[len(stream)-1].Wire.Kind != testWireEnd {
				panic("window drain lost the stream")
			}
			for i, rc := range stream[:len(items)] {
				if rc.Wire.C != items[i] {
					panic("window drain reordered items")
				}
			}
			if len(last) != 0 {
				panic("unexpected straggler mail")
			}
			// Interior stages wake in the round of their end-marker
			// forward; the chain's end on its arrival round.
			wantRound := streamEnd + h.ID()
			if h.ID() == hops-1 {
				wantRound--
			}
			if h.Round() != wantRound {
				panic("window drain latency wrong")
			}
			h.Idle(exitRound - h.Round())
		}
	}
	for _, v := range []struct {
		name                 string
		lastSleeps, rootNaps bool
	}{
		{"clean", false, false},
		{"sleeper-end", true, false},
		{"deadline-breaks", false, true},
	} {
		t.Run(v.name, func(t *testing.T) {
			winBefore := windowRounds.Load()
			stats := both(t, g, func(h *Host) { chain(h, v.lastSleeps, v.rootNaps) })
			if stats.Messages != int64((len(items)+1)*(hops-1)) {
				t.Fatalf("stats = %+v", stats)
			}
			if stats.Rounds != exitRound {
				t.Fatalf("rounds = %d, want %d", stats.Rounds, exitRound)
			}
			if !v.lastSleeps && windowRounds.Load() == winBefore {
				t.Fatal("window relay never engaged on a pure drain")
			}
		})
	}
}

// TestRelayDeviation: mail off the source port wakes the relay with the
// clean prefix split from the deviating inbox.
func TestRelayDeviation(t *testing.T) {
	g := graph.Path(3, graph.UnitWeights)
	both(t, g, func(h *Host) {
		switch h.ID() {
		case 0:
			h.Exchange([]Send{{Port: 0, Wire: Wire{Kind: testWireRelay, C: 1}}})
			h.Exchange([]Send{{Port: 0, Wire: Wire{Kind: testWireRelay, C: 2}}})
			h.Idle(1)
		case 1:
			src, _ := h.PortOf(0)
			relayed, last := h.Relay(src, nil, testWireEnd)
			if len(relayed) != 1 || relayed[0].Wire.C != 1 {
				panic("clean prefix wrong")
			}
			// Deviating round: item 2 from node 0 plus the poke from 2.
			if len(last) != 2 || last[0].Wire.C != 2 || h.Neighbor(last[1].Port) != 2 {
				panic("deviating inbox wrong")
			}
			h.Idle(1)
		case 2:
			h.Idle(1)
			h.Exchange([]Send{{Port: 0, Wire: Wire{Kind: testWireRelay, C: 9}}})
			h.Idle(1)
		}
	})
}

// TestFastPathParallelism: the fast paths compose with sharded routing
// bit-exactly.
func TestFastPathParallelism(t *testing.T) {
	g := graph.Grid(5, 5, graph.UnitWeights)
	program := func(h *Host) {
		// Mix of sleeping, idling and flooding driven by node id.
		switch h.ID() % 3 {
		case 0:
			h.Idle(3)
			out := make([]Send, 0, h.Degree())
			for p := 0; p < h.Degree(); p++ {
				out = append(out, Send{Port: p, Wire: Wire{Kind: testWireFixed, C: int64(h.ID())}})
			}
			h.Exchange(out)
			h.Idle(2)
		default:
			total := 0
			for h.Round() < 6 {
				total += len(h.SleepUntil(6))
			}
			_ = total
		}
	}
	var ref *Stats
	for _, p := range []int{1, 4, 8} {
		for _, fastOn := range []bool{true, false} {
			stats, err := Run(g, program, WithParallelism(p), WithFastPath(fastOn))
			if err != nil {
				t.Fatalf("p=%d fast=%v: %v", p, fastOn, err)
			}
			if ref == nil {
				ref = stats
			} else if !statsEqual(ref, stats) {
				t.Fatalf("p=%d fast=%v diverged: %+v vs %+v", p, fastOn, ref, stats)
			}
		}
	}
}
