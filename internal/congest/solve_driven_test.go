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

// checkSubmissions solves the roadmesh instance with each case's solver
// and requires the pinned submissions (one per request) on the fast path,
// and Stats and forest equal to the per-round reference
// (WithFastPath(false)).
func checkSubmissions(t *testing.T, cases []solveCase) {
	t.Helper()
	gen, err := workload.Generate("roadmesh", workload.Params{N: 64, K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		spec := steinerforest.Spec{Algorithm: tc.algo, NoCertificate: true}
		subs0 := congest.NodeResumes()
		res, err := steinerforest.Solve(gen.Instance, spec)
		if err != nil {
			t.Fatal(err)
		}
		if subs := congest.NodeResumes() - subs0; subs != tc.subs {
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

// TestDetSolveSubmissions pins the scheduler work of the Section 4
// solvers, each one congest.RunDriven driver: det's 2,140 submissions
// (one per request) on this instance, and rounded's 6,863, those of its
// 6 run phases (it skips the threshold phases its collected streams
// prove empty, which once ran as 18 phases and 25,011 submissions). Their
// Stats match the per-round reference (WithFastPath(false)), which
// submits far more (6,208 and 16,384): with the fast path off every park
// is a loop of plain exchanges.
func TestDetSolveSubmissions(t *testing.T) {
	checkSubmissions(t, []solveCase{{"det", 2140}, {"rounded", 6863}})
}

// TestRandSolveSubmissions pins the Section 5 solvers the same way:
// rand, trunc and khan make 5,527, 9,623 and 11,757 submissions. Each
// level's label census rides the routing loop below it, up with the
// routes and down on its exit wave as a relay order; as a collect of its
// own after that loop it took them to 7,370, 12,101 and 17,211.
func TestRandSolveSubmissions(t *testing.T) {
	checkSubmissions(t, []solveCase{{"rand", 5527}, {"trunc", 9623}, {"khan", 11757}})
}
