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

// both runs a program with the fast paths on and off, requiring identical
// Stats.
func both(t *testing.T, g *graph.Graph, program Program, opts ...Option) *Stats {
	t.Helper()
	fast, err := Run(g, program, opts...)
	if err != nil {
		t.Fatalf("fast: %v", err)
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

// TestRelayDrain: once the stream source goes quiet, the in-flight items
// drain through a chain of parked relays in rounds whose only traffic is
// relay forwards. The three variants mix other events into those rounds:
// none (a clean drain to the end marker), a sleeper at the chain's end
// that wakes on every arrival, and an idle deadline firing every drain
// round. Stats must be identical with the fast paths off (via both).
func TestRelayDrain(t *testing.T) {
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
				// wake.
				for h.Round() < exitRound {
					h.Idle(1)
				}
			} else {
				h.Idle(exitRound - h.Round())
			}
		case h.ID() == hops-1 && lastSleeps:
			// The chain's end consumes the stream awake: every arrival is
			// a sleeper wake.
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
				panic("relay drain lost the stream")
			}
			for i, rc := range stream[:len(items)] {
				if rc.Wire.C != items[i] {
					panic("relay drain reordered items")
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
				panic("relay drain latency wrong")
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
			stats := both(t, g, func(h *Host) { chain(h, v.lastSleeps, v.rootNaps) })
			if stats.Messages != int64((len(items)+1)*(hops-1)) {
				t.Fatalf("stats = %+v", stats)
			}
			if stats.Rounds != exitRound {
				t.Fatalf("rounds = %d, want %d", stats.Rounds, exitRound)
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
			relayed, last := h.RelayStream(src, nil, testWireEnd)
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
