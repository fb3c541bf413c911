package congest

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"steinerforest/internal/graph"
)

// floodProgram is a deterministic long-running program: rounds of
// neighbor flooding with a per-node accumulator. onRound (may be nil) is
// called by node 0 at the top of each round — the cancellation tests use
// it to fire a context from inside the run.
func floodProgram(rounds int, onRound func(r int)) func(h *Host) (Request, Driver) {
	return func(h *Host) (Request, Driver) {
		return Idle(0), &floodNext{h: h, left: rounds, x: int64(h.ID() + 1), onRound: onRound}
	}
}

// floodNext is floodProgram's driver.
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

// TestCancelAbortsBothSchedulers cancels a run mid-flood.
func TestCancelAbortsBothSchedulers(t *testing.T) {
	g := graph.Grid(4, 4, graph.UnitWeights)
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"continuation", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			opts := append([]Option{WithContext(ctx), WithMaxRounds(10000)}, tc.opts...)
			_, err := RunDriven(g, floodProgram(5000, func(r int) {
				if r == 40 {
					cancel()
				}
			}), opts...)
			if !errors.Is(err, ErrCancelled) {
				t.Fatalf("err = %v, want ErrCancelled", err)
			}
			// The cause must ride along so callers can switch on the
			// standard sentinels too.
			if !errors.Is(err, context.Canceled) {
				t.Errorf("err = %v, does not wrap context.Canceled", err)
			}
		})
	}
}

func TestCancelPreFiredContext(t *testing.T) {
	g := graph.Path(4, graph.UnitWeights)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunDriven(g, floodProgram(100, nil), WithContext(ctx), WithMaxRounds(1000))
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled for a pre-fired context", err)
	}
}

func TestDeadlineAbortsRun(t *testing.T) {
	g := graph.Grid(4, 4, graph.UnitWeights)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	// A slow-round hook guarantees the deadline expires mid-run without
	// depending on machine speed.
	hooks := &RunHooks{Round: func(int) { time.Sleep(time.Millisecond) }}
	_, err := RunDriven(g, floodProgram(5000, nil),
		WithContext(ctx), WithRunHooks(hooks), WithMaxRounds(10000))
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, does not wrap context.DeadlineExceeded", err)
	}
}

// TestContextNeutralWhenNotFired pins the WithContext contract: a run
// carrying a context that never fires is bit-identical to a run without
// one.
func TestContextNeutralWhenNotFired(t *testing.T) {
	g := graph.Grid(5, 5, graph.UnitWeights)
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"continuation", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := append([]Option{WithSeed(11), WithMaxRounds(1000)}, tc.opts...)
			plain, err := RunDriven(g, floodProgram(50, nil), base...)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			withCtx, err := RunDriven(g, floodProgram(50, nil), append(base, WithContext(ctx))...)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plain, withCtx) {
				t.Errorf("never-fired context changed the run:\nplain   %+v\nwithCtx %+v", plain, withCtx)
			}
		})
	}
}

// TestArenaPoolReuseAfterAbort pins warm-arena hygiene: an arena that
// lived through a cancelled run goes back to the pool and the next run
// that picks it up warm is bit-identical to a cold run.
func TestArenaPoolReuseAfterAbort(t *testing.T) {
	g := graph.Grid(4, 4, graph.UnitWeights)
	pool := NewArenaPool()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := RunDriven(g, floodProgram(5000, func(r int) {
		if r == 25 {
			cancel()
		}
	}), WithContext(ctx), WithArenaPool(pool), WithMaxRounds(10000), WithSeed(3))
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("aborted run: err = %v, want ErrCancelled", err)
	}
	if pool.Stats().Free == 0 {
		t.Fatal("aborted run did not return its arena to the pool")
	}

	warm, err := RunDriven(g, floodProgram(60, nil),
		WithArenaPool(pool), WithMaxRounds(1000), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if got := pool.Stats().WarmGets; got == 0 {
		t.Fatal("follow-up run did not reuse the aborted run's arena")
	}
	cold, err := RunDriven(g, floodProgram(60, nil), WithMaxRounds(1000), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm, cold) {
		t.Errorf("warm reuse after abort changed the run:\nwarm %+v\ncold %+v", warm, cold)
	}
}
