package congest

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
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

// TestDriveMatchesBlockingLoop pins a chained program to its plain-loop
// definition: a scriptDriver run by Chain and followed by one more
// exchange sees, in every Next call, the same round and inbox on the fast
// path as under the plain-loop reference (WithFastPath(false)), its
// follow-up stage starts at the same round, and Stats match.
func TestDriveMatchesBlockingLoop(t *testing.T) {
	g := graph.GNP(30, 0.12, graph.UnitWeights, newRand(3))
	type observed struct {
		stats *Stats
		calls [][]driveCall
		after []int
	}
	observe := func(opts ...Option) observed {
		o := observed{calls: make([][]driveCall, g.N()), after: make([]int, g.N())}
		stats, err := RunDriven(g, func(h *Host) (Request, Driver) {
			d := &scriptDriver{h: h, rng: rand.New(rand.NewSource(int64(h.ID()))), left: 10 + h.ID()%7, calls: &o.calls[h.ID()]}
			return Chain(
				func() (Request, Driver) { return Idle(h.ID() % 2), d },
				func() (Request, Driver) {
					o.after[h.ID()] = h.Round()
					return Exchange(nil), done
				})
		}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		o.stats = stats
		return o
	}
	ref := observe(WithFastPath(false))
	if got := observe(); !reflect.DeepEqual(got, ref) {
		t.Errorf("driven run differs from the plain loop:\n got %+v\nwant %+v", got, ref)
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

// TestRunDrivenMatchesReference pins RunDriven to its definition, the
// plain Exchange loops the reference (WithFastPath(false)) expands every
// request into: on the fast path Stats and every Next call's round and
// inbox are identical.
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
	stats, calls := observe()
	if !reflect.DeepEqual(stats, refStats) {
		t.Errorf("stats %+v, reference %+v", *stats, *refStats)
	}
	if !reflect.DeepEqual(calls, refCalls) {
		t.Errorf("Next calls differ from the reference:\n got %v\nwant %v", calls, refCalls)
	}
}

// TestReferenceIsPlainLoop pins the reference as the naive loop: under
// WithFastPath(false) every live node exchanges in every round and no
// park or relay order reaches the engine. The program chains a
// scriptDriver (exchanges, interruptible and plain parks, requests that
// take no round), sleeps to a common round, and runs TestRelayDrain's
// chain (relay orders, sleeps, idles). A node then submits once per round
// up to its exit round, plus once when it is done, so the run's
// submissions (NodeResumes) are the sum of the exit rounds plus n. The
// fast path, which parks, submits fewer, with equal Stats.
func TestReferenceIsPlainLoop(t *testing.T) {
	g := graph.Path(relayHops, graph.UnitWeights)
	const sync = 100 // past every scriptDriver's end
	var exits []int
	start := func(h *Host) (Request, Driver) {
		d := &scriptDriver{h: h, rng: rand.New(rand.NewSource(int64(h.ID()))), left: 10 + h.ID()%7, calls: new([]driveCall)}
		return Chain(
			func() (Request, Driver) { return Idle(h.ID() % 2), d },
			func() (Request, Driver) {
				return script(loop(func([]Recv) Request {
					if h.Round() < sync {
						return SleepUntil(sync)
					}
					return Request{}
				}))
			},
			func() (Request, Driver) { return relayChain(h, sync, h.ID() == relayHops-1, h.ID() == 0) },
			func() (Request, Driver) {
				exits[h.ID()] = h.Round()
				return Request{}, nil
			})
	}
	run := func(opts ...Option) (stats *Stats, subs, sum int64) {
		exits = make([]int, g.N())
		before := nodeResumes.Load()
		stats, err := RunDriven(g, start, opts...)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range exits {
			sum += int64(r)
		}
		return stats, nodeResumes.Load() - before, sum
	}
	ref, refSubs, sum := run(WithFastPath(false))
	if want := sum + int64(g.N()); refSubs != want {
		t.Errorf("reference made %d submissions, want %d (exit rounds %d + n)", refSubs, want, sum)
	}
	fast, fastSubs, _ := run()
	if !statsEqual(fast, ref) {
		t.Errorf("fast path %+v, reference %+v", *fast, *ref)
	}
	if fastSubs >= refSubs {
		t.Errorf("fast path made %d submissions, the reference %d: nothing parked", fastSubs, refSubs)
	}
}

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

// TestRunDrivenCancel cancels a driven flood from inside its own Next; the
// run aborts with the cancel error on both paths.
func TestRunDrivenCancel(t *testing.T) {
	g := graph.Grid(4, 4, graph.UnitWeights)
	for _, fast := range []bool{true, false} {
		ctx, cancel := context.WithCancel(context.Background())
		_, err := RunDriven(g, floodProgram(5000, func(r int) {
			if r == 40 {
				cancel()
			}
		}), WithContext(ctx), WithMaxRounds(10000), WithFastPath(fast))
		cancel()
		if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.Canceled) {
			t.Errorf("fast path %v: err = %v, want ErrCancelled wrapping context.Canceled", fast, err)
		}
	}
}
