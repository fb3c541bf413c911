package dist

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"steinerforest/internal/congest"
	"steinerforest/internal/graph"
)

// TestCancelWhileDriven cancels a run while every node is inside a
// Bellman-Ford — its quiescence driver run by the scheduler — and
// requires ErrCancelled plus a clean unwind: the goroutine count returns
// to its baseline.
func TestCancelWhileDriven(t *testing.T) {
	g := graph.Path(120, graph.UnitWeights) // one source at an end: ~240 rounds of relaxation
	for _, tc := range []struct {
		name string
		opts []congest.Option
	}{
		{"serial", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var bfStart atomic.Int64 // node 0's round on entering Bellman-Ford
			bfStart.Store(-1)
			var cancelledAt atomic.Int64
			hooks := &congest.RunHooks{Round: func(r int) {
				if s := bfStart.Load(); s >= 0 && r >= int(s)+40 && cancelledAt.CompareAndSwap(0, int64(r)) {
					cancel()
				}
			}}
			opts := append([]congest.Option{congest.WithContext(ctx), congest.WithRunHooks(hooks)}, tc.opts...)
			_, err := congest.RunDriven(g, onTree(func(h *congest.Host, tr *Tree) (congest.Request, congest.Driver) {
				if h.ID() == 0 {
					bfStart.Store(int64(h.Round()))
				}
				return StartBellmanFord(h, tr, BFConfig{IsSource: h.ID() == 0})
			}, then(func(h *congest.Host, _ *Tree) {
				t.Errorf("node %d finished Bellman-Ford in a cancelled run", h.ID())
			})), opts...)
			if !errors.Is(err, congest.ErrCancelled) {
				t.Fatalf("err = %v, want ErrCancelled", err)
			}
			if cancelledAt.Load() == 0 {
				t.Fatal("the cancel never fired inside Bellman-Ford")
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > baseline {
				t.Fatalf("%d goroutines after the cancelled run, baseline %d: the run leaked some", n, baseline)
			}
		})
	}
}
