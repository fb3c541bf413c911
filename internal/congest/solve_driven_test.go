package congest_test

import (
	"reflect"
	"testing"

	steinerforest "steinerforest"
	"steinerforest/internal/congest"
	"steinerforest/internal/workload"
)

// solveCase is a solver and the submissions its solve of the roadmesh
// n=64 k=3 seed 1 instance makes.
type solveCase struct {
	algo string
	subs int64
}

// checkNoSwitch solves the roadmesh instance with each case's solver and
// requires no coroutine switch on the fast path, the pinned submissions
// (one per request), and Stats and forest equal to the per-round
// reference (WithFastPath(false)).
func checkNoSwitch(t *testing.T, cases []solveCase) {
	t.Helper()
	gen, err := workload.Generate("roadmesh", workload.Params{N: 64, K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
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
		if !reflect.DeepEqual(res.Stats, ref.Stats) || !reflect.DeepEqual(res.Solution, ref.Solution) || res.Levels != ref.Levels {
			t.Errorf("%s: fast path %+v, reference %+v", tc.algo, *res.Stats, *ref.Stats)
		}
	}
}

// TestDetSolvesTakeNoSwitch pins the Section 4 solvers as coroutine-free
// node programs: det and rounded run as one congest.RunDriven driver, so
// on the fast path a solve takes no coroutine switch at all, and its
// Stats match the per-round reference (WithFastPath(false)). det's 2,616
// submissions (one per request) are what the coroutine-hosted program
// made on this instance. rounded's 8,954 are those of its 6 run phases:
// it skips the threshold phases its collected streams prove empty, which
// once ran as 18 phases and 25,011 submissions. The reference itself
// submits far more (8,384 and 23,936): with the fast path off every park
// is a loop of plain exchanges.
func TestDetSolvesTakeNoSwitch(t *testing.T) {
	checkNoSwitch(t, []solveCase{{"det", 2616}, {"rounded", 8954}})
}

// TestRandSolvesTakeNoSwitch pins the Section 5 solvers the same way:
// rand, trunc and khan run as one congest.RunDriven driver, with the
// submissions of the coroutine-hosted program they replaced (13,139,
// 20,603 and 31,473, which switched 2,176, 3,392 and 5,568 times).
func TestRandSolvesTakeNoSwitch(t *testing.T) {
	checkNoSwitch(t, []solveCase{{"rand", 13139}, {"trunc", 20603}, {"khan", 31473}})
}
