package congest

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"steinerforest/internal/graph"
)

const (
	failFloodRounds = 20
	failNode        = 6 // an Exchange-loop node
	failRound       = 8
)

// failFlood returns node h's full-degree flood for one round into out.
func failFlood(h *Host, out []Send) []Send {
	out = out[:0]
	for p := 0; p < h.Degree(); p++ {
		out = append(out, Send{Port: p, Wire: msg(int64(h.ID() + h.Round()))})
	}
	return out
}

// floodDriver floods from the scheduler until round failFloodRounds.
type floodDriver struct {
	h   *Host
	out []Send
}

func (d *floodDriver) Next([]Recv) (Request, bool) {
	if d.h.Round() >= failFloodRounds {
		return Request{}, false
	}
	d.out = failFlood(d.h, d.out)
	return Exchange(d.out), true
}

// faultProgram keeps the nodes in three different engine states when a
// fault fires: a third flood from a script loop, a third flood through
// floodDriver, and a third sleep until mail or a deadline. At round
// failRound node failNode sends fault(h) instead of its flood (fault may
// also panic); a nil fault sends the flood. Every node runs tail after
// its flood (nil: done).
func faultProgram(fault func(h *Host) []Send, tail func(h *Host) (Request, Driver)) func(h *Host) (Request, Driver) {
	return func(h *Host) (Request, Driver) {
		var out []Send
		flood := func() (Request, Driver) {
			switch h.ID() % 3 {
			case 0:
				return script(loop(func([]Recv) Request {
					if h.Round() >= failFloodRounds {
						return Request{}
					}
					out = failFlood(h, out)
					if h.ID() == failNode && h.Round() == failRound && fault != nil {
						out = fault(h)
					}
					return Exchange(out)
				}))
			case 1:
				return Exchange(failFlood(h, nil)), &floodDriver{h: h}
			}
			return script(loop(func([]Recv) Request {
				if h.Round() < failFloodRounds {
					return SleepUntil(h.Round() + 3)
				}
				return Request{}
			}))
		}
		if tail == nil {
			return flood()
		}
		return Chain(flood, func() (Request, Driver) { return tail(h) })
	}
}

// TestFailPathsReleaseEverything drives every way a run can fail — a node
// panic, a bandwidth violation, a duplicate port send, the round limit and
// ErrAsleep — with nodes exchanging, driven and parked when the fault
// fires. Each failed run must return its error, leave no goroutine
// behind, and hand its arena back to the pool; a clean run on that warm
// arena must then match a cold one.
func TestFailPathsReleaseEverything(t *testing.T) {
	g := graph.Grid(6, 6, graph.UnitWeights)
	cases := []struct {
		name  string
		fault func(h *Host) []Send
		tail  func(h *Host) (Request, Driver)
		opts  []Option
		want  func(error) bool
	}{
		{
			name:  "panic",
			fault: func(*Host) []Send { panic("fail test: boom") },
			want: func(err error) bool {
				return err != nil && strings.Contains(err.Error(), fmt.Sprintf("node %d panicked: fail test: boom", failNode))
			},
		},
		{
			name: "bandwidth",
			fault: func(*Host) []Send {
				return []Send{{Port: 0, Wire: Wire{Kind: testWireDyn, C: 100000}}}
			},
			want: func(err error) bool { return errors.Is(err, ErrBandwidth) },
		},
		{
			name: "duplicate send",
			fault: func(*Host) []Send {
				return []Send{{Port: 0, Wire: msg(1)}, {Port: 0, Wire: msg(2)}}
			},
			want: func(err error) bool { return err != nil && strings.Contains(err.Error(), "sent twice on port 0") },
		},
		{
			name: "round limit",
			tail: func(h *Host) (Request, Driver) {
				return script(loop(func([]Recv) Request { return Exchange(nil) }))
			},
			opts: []Option{WithMaxRounds(40)},
			want: func(err error) bool { return errors.Is(err, ErrRoundLimit) },
		},
		{
			name: "asleep",
			tail: func(h *Host) (Request, Driver) { return script(Sleep()) },
			want: func(err error) bool { return errors.Is(err, ErrAsleep) },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name+"/p1", func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			pool := NewArenaPool()
			opts := append([]Option{WithArenaPool(pool)}, tc.opts...)
			if _, err := RunDriven(g, faultProgram(tc.fault, tc.tail), opts...); !tc.want(err) {
				t.Fatalf("err = %v", err)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > baseline {
				t.Fatalf("%d goroutines after the failed run, baseline %d: the run leaked some", n, baseline)
			}
			if free := pool.Stats().Free; free != 1 {
				t.Fatalf("pool holds %d arenas after the failed run, want 1", free)
			}
			warm, err := RunDriven(g, faultProgram(nil, nil), WithArenaPool(pool))
			if err != nil {
				t.Fatal(err)
			}
			if ps := pool.Stats(); ps.WarmGets != 1 {
				t.Fatalf("follow-up run did not reuse the failed run's arena: %+v", ps)
			}
			cold, err := RunDriven(g, faultProgram(nil, nil))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(warm, cold) {
				t.Errorf("warm run after the failure diverged:\nwarm %+v\ncold %+v", warm, cold)
			}
		})
	}
}
