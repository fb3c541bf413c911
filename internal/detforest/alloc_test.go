package detforest

import (
	"testing"

	"steinerforest/internal/congest"
	"steinerforest/internal/workload"
)

// TestRoundedPhasesAllocateO1 pins the per-phase allocation of the merge
// loop: on this planted instance a det solve runs many more merge phases
// than a rounded solve of the same instance (12 against 1: det ends a
// phase at every deactivating merge, while rounded's merges keep their
// moats active until a threshold check), and what det allocates beyond
// rounded must be O(1) per extra phase, not O(n) — the moat-book
// replicas, the filter and the collected stream are per-node state reused
// across phases. Both solves share a warm arena pool, so the engine's
// tables are not counted.
func TestRoundedPhasesAllocateO1(t *testing.T) {
	gen, err := workload.Generate("planted", workload.Params{N: 256, K: 12, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ins := gen.Instance
	n := ins.G.N()
	pool := congest.NewArenaPool()
	measure := func(solve func() (*Result, error)) (allocs float64, phases int) {
		res, err := solve() // warms the pool
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			if _, err := solve(); err != nil {
				t.Fatal(err)
			}
		}), res.Phases
	}
	det, detPhases := measure(func() (*Result, error) { return Solve(ins, congest.WithArenaPool(pool)) })
	rnd, rndPhases := measure(func() (*Result, error) { return SolveRounded(ins, 1, 2, congest.WithArenaPool(pool)) })
	extra := detPhases - rndPhases
	if extra < 5 {
		t.Fatalf("det runs %d phases against rounded's %d: too few extra phases to measure", detPhases, rndPhases)
	}
	perNodePhase := (det - rnd) / float64(n*extra)
	t.Logf("n=%d: det %.0f allocs over %d phases, rounded %.0f over %d: %.3f per node per extra phase",
		n, det, detPhases, rnd, rndPhases, perNodePhase)
	if perNodePhase > 0.25 {
		t.Errorf("det allocates %.2f per node per extra phase, want at most 0.25 (O(1) per phase)", perNodePhase)
	}
}
