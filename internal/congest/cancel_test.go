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
// it to fire a context from inside the run, which works identically
// under both schedulers.
func floodProgram(rounds int, onRound func(r int)) Program {
	return func(h *Host) {
		x := int64(h.ID() + 1)
		for r := 0; r < rounds; r++ {
			if h.ID() == 0 && onRound != nil {
				onRound(r)
			}
			out := make([]Send, 0, h.Degree())
			for p := 0; p < h.Degree(); p++ {
				out = append(out, Send{Port: p, Wire: msg(x)})
			}
			for _, rc := range h.Exchange(out) {
				x = (x*31 + rc.Wire.C) % 1000003
			}
		}
	}
}

func TestCancelAbortsBothSchedulers(t *testing.T) {
	g := graph.Grid(4, 4, graph.UnitWeights)
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"continuation", nil},
		{"goroutines", []Option{WithGoroutines(true)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			opts := append([]Option{WithContext(ctx), WithMaxRounds(10000)}, tc.opts...)
			_, err := Run(g, floodProgram(5000, func(r int) {
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
	_, err := Run(g, floodProgram(100, nil), WithContext(ctx), WithMaxRounds(1000))
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
	_, err := Run(g, floodProgram(5000, nil),
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
// one, under both schedulers.
func TestContextNeutralWhenNotFired(t *testing.T) {
	g := graph.Grid(5, 5, graph.UnitWeights)
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"continuation", nil},
		{"goroutines", []Option{WithGoroutines(true)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := append([]Option{WithSeed(11), WithMaxRounds(1000)}, tc.opts...)
			plain, err := Run(g, floodProgram(50, nil), base...)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			withCtx, err := Run(g, floodProgram(50, nil), append(base, WithContext(ctx))...)
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
	_, err := Run(g, floodProgram(5000, func(r int) {
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

	warm, err := Run(g, floodProgram(60, nil),
		WithArenaPool(pool), WithMaxRounds(1000), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if got := pool.Stats().WarmGets; got == 0 {
		t.Fatal("follow-up run did not reuse the aborted run's arena")
	}
	cold, err := Run(g, floodProgram(60, nil), WithMaxRounds(1000), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm, cold) {
		t.Errorf("warm reuse after abort changed the run:\nwarm %+v\ncold %+v", warm, cold)
	}
}
