package congest

import (
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
	dig := int64(len(in))
	for _, rc := range in {
		dig = dig*1000003 + int64(rc.Port)<<20 + rc.Wire.C
	}
	*d.calls = append(*d.calls, driveCall{round: d.h.Round(), in: dig})
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
