package steinerforest_test

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	steinerforest "steinerforest"
	"steinerforest/internal/congest"
	"steinerforest/internal/workload"
)

// mixedInstances draws a mixed bag of instances from the workload
// registry, cycling through every registered family.
func mixedInstances(t *testing.T, count int) []*steinerforest.Instance {
	t.Helper()
	names := workload.Names()
	instances := make([]*steinerforest.Instance, 0, count)
	for i := 0; i < count; i++ {
		out, err := workload.Generate(names[i%len(names)], workload.Params{
			N: 20 + i, K: 2, Seed: int64(100 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		instances = append(instances, out.Instance)
	}
	return instances
}

// TestSolveCtxNeutralWhenNotFired pins the SolveCtx contract: a context
// that never fires is invisible — the result is deep-equal to a plain
// Solve for every distributed solver.
func TestSolveCtxNeutralWhenNotFired(t *testing.T) {
	instances := mixedInstances(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, algo := range []string{"det", "rand"} {
		spec := steinerforest.Spec{Algorithm: algo, Seed: 9}
		for i, ins := range instances {
			plain, err := steinerforest.Solve(ins, spec)
			if err != nil {
				t.Fatalf("%s/%d: %v", algo, i, err)
			}
			withCtx, err := steinerforest.SolveCtx(ctx, ins, spec)
			if err != nil {
				t.Fatalf("%s/%d: %v", algo, i, err)
			}
			if !reflect.DeepEqual(plain, withCtx) {
				t.Errorf("%s/%d: never-fired context changed the result", algo, i)
			}
		}
	}
}

// TestSolveCtxCancelled checks the abort surface: a pre-fired context
// aborts the run with an error matching both the engine sentinel and the
// standard context one.
func TestSolveCtxCancelled(t *testing.T) {
	instances := mixedInstances(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := steinerforest.SolveCtx(ctx, instances[0], steinerforest.Spec{Algorithm: "det", Seed: 9})
	if !errors.Is(err, congest.ErrCancelled) {
		t.Fatalf("err = %v, want congest.ErrCancelled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, does not wrap context.Canceled", err)
	}
}

// countingCtx fires after a fixed number of Err checks: checks counts the
// calls that found the context live.
type countingCtx struct {
	context.Context
	checks, fireAt int
}

func (c *countingCtx) Err() error {
	if c.checks >= c.fireAt {
		return context.Canceled
	}
	c.checks++
	return nil
}

// TestSolveCtxCancelsCertificate pins the oracle half of the abort
// surface: a context firing inside the certificate oracle stops it with
// an error matching both the engine sentinel and the context's cause, as
// a context firing before the oracle does.
func TestSolveCtxCancelsCertificate(t *testing.T) {
	ins := mixedInstances(t, 1)[0]
	spec := steinerforest.Spec{Algorithm: "det", Seed: 9}
	live := &countingCtx{Context: context.Background(), fireAt: math.MaxInt}
	if _, err := steinerforest.SolveCtx(live, ins, spec); err != nil {
		t.Fatal(err)
	}
	// The last check of a live run is the oracle's last merge event.
	ctx := &countingCtx{Context: context.Background(), fireAt: live.checks - 1}
	_, err := steinerforest.SolveCtx(ctx, ins, spec)
	if !errors.Is(err, congest.ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want congest.ErrCancelled wrapping context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "certificate cancelled") {
		t.Errorf("err = %v, want the certificate stage named", err)
	}
}
