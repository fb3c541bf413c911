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
// solvers, each one congest.RunDriven driver: det's 1,788 submissions
// (one per request) on this instance, and rounded's 2,573, those of its
// 2 merge phases (its collected stream runs past every threshold check
// that changes no moat's activity; ending a phase at every check whose
// phase held a merge took 6 phases and 6,863 submissions, and a phase
// per threshold once took 18 phases and 25,011). The terminal
// announcement rides the BFS build, every collect's downcast trails its
// root's decisions, and det mirrors its neighbors' coverage instead of
// exchanging it each phase; with the announcement a collect of its own
// after the build, each downcast waiting for its upcast and the coverage
// exchanged they took 2,140 and 2,987. Their Stats match the per-round
// reference (WithFastPath(false)), which submits far more (5,056 and
// 6,912): with the fast path off every park is a loop of plain
// exchanges.
func TestDetSolveSubmissions(t *testing.T) {
	checkSubmissions(t, []solveCase{{"det", 1788}, {"rounded", 2573}})
}

// TestRandSolveSubmissions pins the Section 5 solvers the same way:
// rand, trunc and khan make 5,237, 9,275 and 11,450 submissions. The
// global label census rides the BFS build, and an exit list's last item
// carries its end mark; with the census a collect of its own after the
// embedding and an end marker wire after every exit list they took
// 5,527, 9,623 and 11,757. Each level's label census rides the routing
// loop below it, up with the routes and down on its exit wave as a relay
// order; as a collect of its own after that loop it took them to 7,370,
// 12,101 and 17,211.
func TestRandSolveSubmissions(t *testing.T) {
	checkSubmissions(t, []solveCase{{"rand", 5237}, {"trunc", 9275}, {"khan", 11450}})
}
