package congest_test

import (
	"reflect"
	"testing"

	steinerforest "steinerforest"
	"steinerforest/internal/congest"
	"steinerforest/internal/workload"
)

// TestDetSolvesTakeNoSwitch pins the Section 4 solvers as coroutine-free
// node programs: det and rounded run as one congest.RunDriven driver, so
// on the fast path a solve takes no coroutine switch at all, while its
// submissions (one per request) stay what the coroutine-hosted program
// made — 2,616 and 25,011 on this instance — and its Stats match the
// per-round reference (WithFastPath(false)). The reference itself
// submits far more (8,384 and 62,464): with the fast path off every park
// is a loop of plain exchanges.
func TestDetSolvesTakeNoSwitch(t *testing.T) {
	gen, err := workload.Generate("roadmesh", workload.Params{N: 64, K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		algo string
		subs int64
	}{{"det", 2616}, {"rounded", 25011}} {
		spec := steinerforest.Spec{Algorithm: tc.algo, NoCertificate: true}
		subs0, sw0 := congest.NodeResumes(), congest.CoroSwitches()
		res, err := steinerforest.Solve(gen.Instance, spec)
		if err != nil {
			t.Fatal(err)
		}
		subs, sw := congest.NodeResumes()-subs0, congest.CoroSwitches()-sw0
		if sw != 0 {
			t.Errorf("%s: %d coroutine switches, want 0", tc.algo, sw)
		}
		if subs != tc.subs {
			t.Errorf("%s: %d submissions, want %d", tc.algo, subs, tc.subs)
		}
		spec.NoFastPath = true
		ref, err := steinerforest.Solve(gen.Instance, spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Stats, ref.Stats) || !reflect.DeepEqual(res.Solution, ref.Solution) {
			t.Errorf("%s: fast path %+v, reference %+v", tc.algo, *res.Stats, *ref.Stats)
		}
	}
}
