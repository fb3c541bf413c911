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
func both(t *testing.T, g *graph.Graph, start func(h *Host) (Request, Driver), opts ...Option) *Stats {
	t.Helper()
	fast, err := RunDriven(g, start, opts...)
	if err != nil {
		t.Fatalf("fast: %v", err)
	}
	slow, err := RunDriven(g, start, append(opts, WithFastPath(false))...)
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
	stats := both(t, g, func(h *Host) (Request, Driver) {
		if h.ID() == 0 {
			return script(Idle(7), Exchange([]Send{{Port: 0, Wire: Wire{Kind: testWireFixed, C: 42}}}))
		}
		return script(Sleep(), func(in []Recv) Request {
			if len(in) != 1 || in[0].Wire.C != 42 || h.Neighbor(in[0].Port) != 0 {
				panic("wrong wake inbox")
			}
			if h.Round() != 8 {
				panic("sleeper woke at the wrong round")
			}
			return Request{}
		})
	})
	if stats.Rounds != 8 || stats.Messages != 1 || stats.Bits != 48 {
		t.Fatalf("stats = %+v", stats)
	}
}

// TestIdleAcrossBulkAdvance: with every node parked, the clock jumps to
// the earliest wake round in one step and staggered wake-ups line up.
func TestIdleAcrossBulkAdvance(t *testing.T) {
	g := graph.Path(3, graph.UnitWeights)
	stats := both(t, g, func(h *Host) (Request, Driver) {
		return script(
			Idle(100+50*h.ID()), // deadlines 100, 150, 200
			func([]Recv) Request {
				if h.Round() != 100+50*h.ID() {
					panic("idle returned at the wrong round")
				}
				return Idle(200 - h.Round()) // realign
			},
			func([]Recv) Request {
				if h.ID() == 1 {
					return Exchange([]Send{{Port: 0, Wire: Wire{Kind: testWireFixed}}, {Port: 1, Wire: Wire{Kind: testWireFixed}}})
				}
				return Sleep()
			},
			func(in []Recv) Request {
				if h.ID() != 1 && len(in) != 1 {
					panic("no message after bulk advance")
				}
				return Request{}
			})
	})
	if stats.Rounds != 201 || stats.Messages != 2 {
		t.Fatalf("stats = %+v", stats)
	}
}

// TestSleepUntilDeadline: SleepUntil returns nil at its deadline when no
// message arrives, and the inbox when one does.
func TestSleepUntilDeadline(t *testing.T) {
	g := graph.Path(2, graph.UnitWeights)
	both(t, g, func(h *Host) (Request, Driver) {
		if h.ID() == 0 {
			return script(SleepUntil(5), func(in []Recv) Request {
				if in != nil || h.Round() != 5 {
					panic("deadline sleep misbehaved")
				}
				return Exchange([]Send{{Port: 0, Wire: Wire{Kind: testWireFixed, C: 7}}})
			})
		}
		return script(SleepUntil(50), func(in []Recv) Request { // message at round 5 interrupts
			if len(in) != 1 || in[0].Wire.C != 7 || h.Round() != 6 {
				panic("message did not interrupt SleepUntil")
			}
			return Idle(44)
		})
	})
}

// TestWireBitsAccounting pins the width table: fixed kinds, dynamic kinds,
// and the bandwidth ceiling.
func TestWireBitsAccounting(t *testing.T) {
	g := graph.Path(2, graph.UnitWeights)
	stats := both(t, g, func(h *Host) (Request, Driver) {
		if h.ID() != 0 {
			return script(Idle(2))
		}
		return script(
			Exchange([]Send{{Port: 0, Wire: Wire{Kind: testWireFixed}}}),
			Exchange([]Send{{Port: 0, Wire: Wire{Kind: testWireDyn, C: 100}}}))
	})
	if stats.Bits != 48+108 || stats.MaxMessageBits != 108 {
		t.Fatalf("wire bit accounting: %+v", stats)
	}
	if (Wire{Kind: testWireDyn, C: 1}).Bits() != 9 {
		t.Fatal("Wire.Bits dynamic lookup")
	}
	_, err := RunDriven(g, func(h *Host) (Request, Driver) {
		return script(Exchange([]Send{{Port: 0, Wire: Wire{Kind: testWireDyn, C: 1 << 20}}}))
	})
	if !errors.Is(err, ErrBandwidth) {
		t.Fatalf("oversized wire: %v", err)
	}
}

// TestBandwidthValidatedAtSetup: a budget below the widest registered
// fixed-width wire kind fails the run immediately with a clear error,
// instead of erroring (or worse) deep into the protocol at the first wide
// send.
func TestBandwidthValidatedAtSetup(t *testing.T) {
	g := graph.Path(2, graph.UnitWeights)
	ran := false
	_, err := RunDriven(g, func(h *Host) (Request, Driver) { ran = true; return script() }, WithBandwidth(4))
	if !errors.Is(err, ErrBandwidth) || err == nil || !strings.Contains(err.Error(), "widest registered wire kind") {
		t.Fatalf("setup validation: %v", err)
	}
	if ran {
		t.Fatal("programs ran despite an unusable bandwidth budget")
	}
	// A budget that fits every registered kind passes setup (and the run).
	if _, err := RunDriven(g, func(h *Host) (Request, Driver) { return script() }, WithBandwidth(256)); err != nil {
		t.Fatalf("valid budget rejected: %v", err)
	}
}

// TestWireSendValidation: unregistered kinds fail.
func TestWireSendValidation(t *testing.T) {
	g := graph.Path(2, graph.UnitWeights)
	_, err := RunDriven(g, func(h *Host) (Request, Driver) {
		return script(Exchange([]Send{{Port: 0, Wire: Wire{Kind: 250}}}))
	})
	if err == nil || !strings.Contains(err.Error(), "unregistered wire kind") {
		t.Fatalf("unregistered kind: %v", err)
	}
}

// TestWireCtlBits: a control code rides on its payload message for
// CtlBits more bits and no extra message, on the fast path and off; a
// code beyond CtlBits fails the run.
func TestWireCtlBits(t *testing.T) {
	w := Wire{Kind: testWireFixed, Ctl: 3}
	if got := w.Bits(); got != 48+CtlBits {
		t.Fatalf("Bits with a control code = %d, want %d", got, 48+CtlBits)
	}
	g := graph.Path(2, graph.UnitWeights)
	var got []Recv
	stats := both(t, g, func(h *Host) (Request, Driver) {
		return rounds(1, func(int) []Send { return []Send{{Port: 0, Wire: w}} }, func(_ int, in []Recv) {
			if h.ID() == 1 {
				got = append(got[:0], in...)
			}
		})
	})
	if stats.Messages != 2 || stats.Bits != 2*(48+CtlBits) || stats.MaxMessageBits != 48+CtlBits {
		t.Fatalf("stats %+v, want 2 messages of %d bits", *stats, 48+CtlBits)
	}
	if len(got) != 1 || got[0].Wire != w {
		t.Fatalf("delivered %v, want the wire with its code", got)
	}
	_, err := RunDriven(g, func(h *Host) (Request, Driver) {
		return script(Exchange([]Send{{Port: 0, Wire: Wire{Kind: testWireFixed, Ctl: 1 << CtlBits}}}))
	})
	if err == nil || !strings.Contains(err.Error(), "control code") {
		t.Fatalf("oversized control code: %v", err)
	}
}

// TestAllAsleepFails: a network where every node sleeps unboundedly is a
// protocol bug the fast path reports instead of spinning.
func TestAllAsleepFails(t *testing.T) {
	g := graph.Path(2, graph.UnitWeights)
	sleep := func(h *Host) (Request, Driver) { return script(Sleep()) }
	_, err := RunDriven(g, sleep)
	if !errors.Is(err, ErrAsleep) {
		t.Fatalf("err = %v, want ErrAsleep", err)
	}
	// The Exchange-loop equivalent runs into the round cap instead.
	_, err = RunDriven(g, sleep, WithFastPath(false), WithMaxRounds(64))
	if !errors.Is(err, ErrRoundLimit) {
		t.Fatalf("err = %v, want ErrRoundLimit", err)
	}
}

// Shape of TestRelayDrain's stream: items, then the end marker, down a
// path of relayHops nodes.
const relayHops = 12

var relayItems = []int64{1, 4, 7, 10, 13, 16, 19, 22}

// relayChain is TestRelayDrain's program, started at round r0 (the same
// on every node): node 0 streams relayItems and the end marker down the
// path, and every other node relays it as a pipeline stage, except the
// chain's end when lastSleeps, which consumes the stream awake, every
// arrival a sleeper wake. With rootNaps node 0 then idles to the exit in
// one-round naps, so every drain round ends with a deadline wake. Every
// node checks what it sees and idles out to the common exit round.
func relayChain(h *Host, r0 int, lastSleeps, rootNaps bool) (Request, Driver) {
	items := relayItems
	streamEnd := r0 + len(items) + 1 // round after node 0's end marker
	exitRound := r0 + len(items) + relayHops - 1
	idleOut := func([]Recv) Request { return Idle(exitRound - h.Round()) }
	switch {
	case h.ID() == 0:
		steps := make([]any, 0, len(items)+2)
		for _, v := range items {
			steps = append(steps, Exchange([]Send{{Port: 0, Wire: Wire{Kind: testWireRelay, C: v}}}))
		}
		steps = append(steps, Exchange([]Send{{Port: 0, Wire: Wire{Kind: testWireEnd}}}))
		if rootNaps {
			return script(append(steps, loop(func([]Recv) Request {
				if h.Round() < exitRound {
					return Idle(1)
				}
				return Request{}
			}))...)
		}
		return script(append(steps, idleOut)...)
	case h.ID() == relayHops-1 && lastSleeps:
		got := 0
		return script(Sleep(), loop(func(in []Recv) Request {
			if got += len(in); got <= len(items) {
				return Sleep()
			}
			return Request{}
		}), idleOut)
	}
	var dst []int
	if h.ID() < relayHops-1 {
		dst = []int{1}
	}
	src, _ := h.PortOf(h.ID() - 1)
	return script(RelayStream(src, dst, testWireEnd, 0), func(in []Recv) Request {
		stream, last := h.RelaySplit(in)
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
		if h.ID() == relayHops-1 {
			wantRound--
		}
		if h.Round() != wantRound {
			panic("relay drain latency wrong")
		}
		return idleOut(nil)
	})
}

// TestRelayDrain: once the stream source goes quiet, the in-flight items
// drain through a chain of parked relays in rounds whose only traffic is
// relay forwards. The three variants mix other events into those rounds:
// none (a clean drain to the end marker), a sleeper at the chain's end
// that wakes on every arrival, and an idle deadline firing every drain
// round. Stats must be identical with the fast paths off (via both).
func TestRelayDrain(t *testing.T) {
	g := graph.Path(relayHops, graph.UnitWeights)
	for _, v := range []struct {
		name                 string
		lastSleeps, rootNaps bool
	}{
		{"clean", false, false},
		{"sleeper-end", true, false},
		{"deadline-breaks", false, true},
	} {
		t.Run(v.name, func(t *testing.T) {
			stats := both(t, g, func(h *Host) (Request, Driver) { return relayChain(h, 0, v.lastSleeps, v.rootNaps) })
			if stats.Messages != int64((len(relayItems)+1)*(relayHops-1)) {
				t.Fatalf("stats = %+v", stats)
			}
			if exitRound := len(relayItems) + relayHops - 1; stats.Rounds != exitRound {
				t.Fatalf("rounds = %d, want %d", stats.Rounds, exitRound)
			}
		})
	}
}

// TestRelayJoinsStream: every stage of the path sleeps until the stream's
// first item arrives and then joins the running stream with
// RelayStreamFrom, which forwards that item in the order's first round.
// Each stage's relayed stream is the rest, end marker last; rounds and
// messages are those of TestRelayDrain's clean drain, identical with the
// fast paths off; and the joined item keeps its control code.
func TestRelayJoinsStream(t *testing.T) {
	g := graph.Path(relayHops, graph.UnitWeights)
	items := relayItems
	exitRound := len(items) + relayHops - 1
	stats := both(t, g, func(h *Host) (Request, Driver) {
		if h.ID() == 0 {
			steps := []any{Exchange([]Send{{Port: 0, Wire: Wire{Kind: testWireRelay, C: items[0], Ctl: 1}}})}
			for _, v := range items[1:] {
				steps = append(steps, Exchange([]Send{{Port: 0, Wire: Wire{Kind: testWireRelay, C: v}}}))
			}
			steps = append(steps, Exchange([]Send{{Port: 0, Wire: Wire{Kind: testWireEnd}}}))
			return script(append(steps, func([]Recv) Request { return Idle(exitRound - h.Round()) })...)
		}
		var dst []int
		if h.ID() < relayHops-1 {
			dst = []int{1}
		}
		src, _ := h.PortOf(h.ID() - 1)
		return script(Sleep(), func(in []Recv) Request {
			if len(in) != 1 || in[0].Wire.C != items[0] || in[0].Wire.Ctl != 1 || h.Round() != h.ID() {
				panic("joined the stream at the wrong item")
			}
			return h.RelayStreamFrom(in[0].Wire, src, dst, testWireEnd, 0)
		}, func(in []Recv) Request {
			stream, last := h.RelaySplit(in)
			if len(stream) != len(items) || stream[len(stream)-1].Wire.Kind != testWireEnd || len(last) != 0 {
				panic("joined relay lost the stream")
			}
			for i, rc := range stream[:len(items)-1] {
				if rc.Wire.C != items[i+1] {
					panic("joined relay reordered items")
				}
			}
			return Idle(exitRound - h.Round())
		})
	})
	if stats.Messages != int64((len(items)+1)*(relayHops-1)) || stats.Rounds != exitRound {
		t.Fatalf("stats = %+v", stats)
	}
	// The joined message is checked like a send: too wide fails the run.
	for _, fast := range []bool{true, false} {
		_, err := RunDriven(graph.Path(3, graph.UnitWeights), func(h *Host) (Request, Driver) {
			if h.ID() != 1 {
				return script(Idle(2))
			}
			src, _ := h.PortOf(0)
			dst, _ := h.PortOf(2)
			return script(h.RelayStreamFrom(Wire{Kind: testWireDyn, C: 1 << 20}, src, []int{dst}, testWireEnd, 0))
		}, WithFastPath(fast))
		if !errors.Is(err, ErrBandwidth) {
			t.Errorf("fast path %v: oversized joined message: %v", fast, err)
		}
	}
}

// TestRelayEndsOnCtl: a stream whose last item carries the order's end
// code needs no end marker wire. Every stage of the path relays it with
// RelayStream(…, endCtl), wakes after forwarding that item (the chain's
// end on its arrival), holding the whole stream with its codes; another
// code on an earlier item does not end it. Rounds and messages are
// TestRelayDrain's clean drain less the marker's, identical with the fast
// paths off.
func TestRelayEndsOnCtl(t *testing.T) {
	g := graph.Path(relayHops, graph.UnitWeights)
	items := relayItems
	exitRound := len(items) + relayHops - 2
	stats := both(t, g, func(h *Host) (Request, Driver) {
		if h.ID() == 0 {
			var steps []any
			for i, v := range items {
				w := Wire{Kind: testWireRelay, C: v}
				switch i {
				case 0:
					w.Ctl = 1
				case len(items) - 1:
					w.Ctl = 2
				}
				steps = append(steps, Exchange([]Send{{Port: 0, Wire: w}}))
			}
			return script(append(steps, func([]Recv) Request { return Idle(exitRound - h.Round()) })...)
		}
		var dst []int
		if h.ID() < relayHops-1 {
			dst = []int{1}
		}
		src, _ := h.PortOf(h.ID() - 1)
		return script(RelayStream(src, dst, testWireEnd, 2), func(in []Recv) Request {
			stream, last := h.RelaySplit(in)
			if len(stream) != len(items) || len(last) != 0 || stream[0].Wire.Ctl != 1 || stream[len(items)-1].Wire.Ctl != 2 {
				panic("relay lost the code-ended stream")
			}
			for i, rc := range stream {
				if rc.Wire.C != items[i] {
					panic("relay reordered items")
				}
			}
			wantRound := len(items) + h.ID()
			if h.ID() == relayHops-1 {
				wantRound--
			}
			if h.Round() != wantRound {
				panic("relay woke in the wrong round")
			}
			return Idle(exitRound - h.Round())
		})
	})
	if stats.Messages != int64(len(items)*(relayHops-1)) || stats.Rounds != exitRound {
		t.Fatalf("stats = %+v", stats)
	}
}

// TestRelayDeviation: mail off the source port wakes the relay with the
// clean prefix split from the deviating inbox.
func TestRelayDeviation(t *testing.T) {
	g := graph.Path(3, graph.UnitWeights)
	both(t, g, func(h *Host) (Request, Driver) {
		switch h.ID() {
		case 0:
			return script(
				Exchange([]Send{{Port: 0, Wire: Wire{Kind: testWireRelay, C: 1}}}),
				Exchange([]Send{{Port: 0, Wire: Wire{Kind: testWireRelay, C: 2}}}),
				Idle(1))
		case 1:
			src, _ := h.PortOf(0)
			return script(RelayStream(src, nil, testWireEnd, 0), func(in []Recv) Request {
				relayed, last := h.RelaySplit(in)
				if len(relayed) != 1 || relayed[0].Wire.C != 1 {
					panic("clean prefix wrong")
				}
				// Deviating round: item 2 from node 0 plus the poke from 2.
				if len(last) != 2 || last[0].Wire.C != 2 || h.Neighbor(last[1].Port) != 2 {
					panic("deviating inbox wrong")
				}
				return Idle(1)
			})
		}
		return script(Idle(1), Exchange([]Send{{Port: 0, Wire: Wire{Kind: testWireRelay, C: 9}}}), Idle(1))
	})
}
