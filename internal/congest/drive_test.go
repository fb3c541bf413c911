package congest

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"steinerforest/internal/graph"
)

// driveCall is one observed Driver.Next call: the node's round and a
// digest of the completed request's inbox.
type driveCall struct {
	round int
	in    int64
}

// digest is the inbox digest of a logged Next call.
func digest(in []Recv) int64 {
	dig := int64(len(in))
	for _, rc := range in {
		dig = dig*1000003 + int64(rc.Port)<<20 + rc.Wire.C
	}
	return dig
}

// scriptDriver issues a seeded random script of requests — exchanges
// with and without sends, interruptible and plain parks, and requests
// that complete without a round (SleepUntil of the current round, Idle(0))
// — and logs every Next call.
type scriptDriver struct {
	h     *Host
	rng   *rand.Rand
	left  int
	calls *[]driveCall
}

func (d *scriptDriver) Next(in []Recv) (Request, bool) {
	*d.calls = append(*d.calls, driveCall{round: d.h.Round(), in: digest(in)})
	if d.left == 0 {
		return Request{}, false
	}
	d.left--
	switch d.rng.Intn(5) {
	case 0, 1:
		var out []Send
		for p := 0; p < d.h.Degree(); p++ {
			if d.rng.Intn(2) == 0 {
				out = append(out, Send{Port: p, Wire: msg(int64(d.h.ID()*100 + d.left))})
			}
		}
		return Exchange(out), true
	case 2:
		return SleepUntil(d.h.Round() + d.rng.Intn(4)), true
	case 3:
		return Idle(d.rng.Intn(3)), true
	}
	return Exchange(nil), true
}

// TestDriveMatchesBlockingLoop pins Drive to its definition: on the
// continuation scheduler, where Next runs from the scheduler without a
// coroutine switch, every Next call sees the same round and inbox as
// under the blocking loop (WithFastPath(false)), the program resumes after
// Drive at the same round, and Stats match.
func TestDriveMatchesBlockingLoop(t *testing.T) {
	g := graph.GNP(30, 0.12, graph.UnitWeights, newRand(3))
	type observed struct {
		stats *Stats
		calls [][]driveCall
		after []int
	}
	observe := func(opts ...Option) observed {
		o := observed{calls: make([][]driveCall, g.N()), after: make([]int, g.N())}
		stats, err := Run(g, func(h *Host) {
			d := &scriptDriver{h: h, rng: rand.New(rand.NewSource(int64(h.ID()))), left: 10 + h.ID()%7, calls: &o.calls[h.ID()]}
			h.Drive(Idle(h.ID()%2), d)
			o.after[h.ID()] = h.Round()
			h.Exchange(nil)
		}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		o.stats = stats
		return o
	}
	ref := observe(WithFastPath(false))
	if got := observe(); !reflect.DeepEqual(got, ref) {
		t.Errorf("driven run differs from the blocking loop:\n got %+v\nwant %+v", got, ref)
	}
}

// blockingDriver calls a blocking Host method from Next — a misuse.
type blockingDriver struct{ h *Host }

func (d blockingDriver) Next([]Recv) (Request, bool) {
	d.h.Exchange(nil)
	return Request{}, false
}

// TestDriveRejectsBlockingNext: a Next that blocks itself, instead of
// returning the call as a Request, fails the run with a clear error on the
// continuation scheduler rather than switching coroutines from the
// scheduler's stack.
func TestDriveRejectsBlockingNext(t *testing.T) {
	_, err := Run(graph.Path(3, graph.UnitWeights), func(h *Host) {
		h.Drive(Exchange(nil), blockingDriver{h})
	})
	if err == nil || !strings.Contains(err.Error(), errBlockingInNext) {
		t.Fatalf("err = %v, want one containing %q", err, errBlockingInNext)
	}
}

// scriptStart is RunDriven's form of TestDriveMatchesBlockingLoop's
// program: each node's whole program is a scriptDriver, logging into
// calls.
func scriptStart(calls [][]driveCall) func(h *Host) (Request, Driver) {
	return func(h *Host) (Request, Driver) {
		d := &scriptDriver{h: h, rng: rand.New(rand.NewSource(int64(h.ID()))), left: 10 + h.ID()%7, calls: &calls[h.ID()]}
		return Idle(h.ID() % 2), d
	}
}

// TestRunDrivenMatchesReference pins RunDriven to its definition, Run
// over Drive, which is how it runs with the fast path off: with it on,
// where no node has a coroutine, Stats and every Next call's round and
// inbox are identical, and the run takes no coroutine switch.
func TestRunDrivenMatchesReference(t *testing.T) {
	g := graph.GNP(30, 0.12, graph.UnitWeights, newRand(5))
	observe := func(opts ...Option) (*Stats, [][]driveCall) {
		calls := make([][]driveCall, g.N())
		stats, err := RunDriven(g, scriptStart(calls), opts...)
		if err != nil {
			t.Fatal(err)
		}
		return stats, calls
	}
	refStats, refCalls := observe(WithFastPath(false))
	sw := coroSwitches.Load()
	stats, calls := observe()
	if d := coroSwitches.Load() - sw; d != 0 {
		t.Errorf("driven run took %d coroutine switches, want 0", d)
	}
	if !reflect.DeepEqual(stats, refStats) {
		t.Errorf("stats %+v, reference %+v", *stats, *refStats)
	}
	if !reflect.DeepEqual(calls, refCalls) {
		t.Errorf("Next calls differ from the reference:\n got %v\nwant %v", calls, refCalls)
	}
}

// nextFunc adapts a function to a Driver.
type nextFunc func(in []Recv) (Request, bool)

func (f nextFunc) Next(in []Recv) (Request, bool) { return f(in) }

// done is a driver that is over at its first Next.
var done = nextFunc(func([]Recv) (Request, bool) { return Request{}, false })

// TestRunDrivenPanics: a panic in start, in a Next that runs from start
// (its first request took no round) or in a later Next fails the run with
// the program-panic wording, on both paths.
func TestRunDrivenPanics(t *testing.T) {
	boom := nextFunc(func([]Recv) (Request, bool) { panic("boom") })
	for _, tc := range []struct {
		name  string
		start func(h *Host) (Request, Driver)
	}{
		{"start", func(h *Host) (Request, Driver) {
			if h.ID() == 1 {
				panic("boom")
			}
			return Exchange(nil), done
		}},
		{"first Next", func(h *Host) (Request, Driver) {
			if h.ID() == 1 {
				return Idle(0), boom
			}
			return Exchange(nil), done
		}},
		{"later Next", func(h *Host) (Request, Driver) {
			if h.ID() == 1 {
				return Exchange(nil), boom
			}
			return Exchange(nil), done
		}},
	} {
		for _, fast := range []bool{true, false} {
			_, err := RunDriven(graph.Path(3, graph.UnitWeights), tc.start, WithFastPath(fast))
			if want := "congest: node 1 panicked: boom"; err == nil || err.Error() != want {
				t.Errorf("%s, fast path %v: err = %v, want %q", tc.name, fast, err, want)
			}
		}
	}
}

// TestRunDrivenRejectsBlockingStart: on the fast path a RunDriven node has
// no coroutine to block in, so a blocking Host call from start — a plain
// one or a Drive — fails the run as one from Next does, not with a nil
// function call.
func TestRunDrivenRejectsBlockingStart(t *testing.T) {
	for name, block := range map[string]func(h *Host){
		"Exchange": func(h *Host) { h.Exchange(nil) },
		"Sleep":    func(h *Host) { h.Sleep() },
		"Drive":    func(h *Host) { h.Drive(Exchange(nil), done) },
	} {
		_, err := RunDriven(graph.Path(3, graph.UnitWeights), func(h *Host) (Request, Driver) {
			block(h)
			return Exchange(nil), done
		})
		if err == nil || !strings.Contains(err.Error(), errBlockingInNext) {
			t.Errorf("%s in start: err = %v, want one containing %q", name, err, errBlockingInNext)
		}
	}
}

// TestRunDrivenDoneAtFirstRequest: drivers that finish before any request
// takes a round end the run at round 0 on both paths.
func TestRunDrivenDoneAtFirstRequest(t *testing.T) {
	g := graph.Grid(3, 3, graph.UnitWeights)
	for _, fast := range []bool{true, false} {
		stats, err := RunDriven(g, func(h *Host) (Request, Driver) {
			if h.ID()%2 == 0 {
				return SleepUntil(0), done
			}
			return Idle(0), done
		}, WithFastPath(fast))
		if err != nil {
			t.Fatal(err)
		}
		if stats.Rounds != 0 || stats.Messages != 0 {
			t.Errorf("fast path %v: %+v, want 0 rounds and messages", fast, *stats)
		}
	}
}

// floodNext is floodProgram as a Driver: rounds of neighbor flooding
// with a per-node accumulator, onRound called by node 0 at the top of
// each round.
type floodNext struct {
	h       *Host
	r, left int
	x       int64
	out     []Send
	onRound func(r int)
}

func (d *floodNext) Next(in []Recv) (Request, bool) {
	for _, rc := range in {
		d.x = (d.x*31 + rc.Wire.C) % 1000003
	}
	if d.r == d.left {
		return Request{}, false
	}
	if d.h.ID() == 0 && d.onRound != nil {
		d.onRound(d.r)
	}
	d.r++
	d.out = d.out[:0]
	for p := 0; p < d.h.Degree(); p++ {
		d.out = append(d.out, Send{Port: p, Wire: msg(d.x)})
	}
	return Exchange(d.out), true
}

// TestRunDrivenCancel cancels a driven flood from inside its own Next; the
// run aborts with the cancel error on both paths.
func TestRunDrivenCancel(t *testing.T) {
	g := graph.Grid(4, 4, graph.UnitWeights)
	for _, fast := range []bool{true, false} {
		ctx, cancel := context.WithCancel(context.Background())
		_, err := RunDriven(g, func(h *Host) (Request, Driver) {
			d := &floodNext{h: h, left: 5000, x: int64(h.ID() + 1), onRound: func(r int) {
				if r == 40 {
					cancel()
				}
			}}
			return Idle(0), d
		}, WithContext(ctx), WithMaxRounds(10000), WithFastPath(fast))
		cancel()
		if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.Canceled) {
			t.Errorf("fast path %v: err = %v, want ErrCancelled wrapping context.Canceled", fast, err)
		}
	}
}
