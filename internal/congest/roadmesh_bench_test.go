package congest_test

import (
	"testing"

	steinerforest "steinerforest"
	"steinerforest/internal/congest"
	"steinerforest/internal/workload"
)

// BenchmarkSolveRoadmesh times the distributed solvers on one fixed
// roadmesh instance (n=1024, k=4, seed 1: a single-phase instance of the
// kind the solve-det workload serves) through a warm arena pool and
// without the certificate oracle, so the figure is simulator and solver
// time only — the A/B handle for scheduler changes such as RunQuiet's
// parking and driving. Besides rounds it reports the scheduler's work per
// solve: submissions (one per blocking call) and the coroutine switches
// they took (submissions a Driver produced take none). Every solver is
// one congest.RunDriven driver, so none takes a switch: 0 switches for
// det / rand / rounded against 43,820 / 257,219 / 497,218 submissions.
// rand took 37,888 while it was a blocking program over the driven dist
// primitives, switching once per node per primitive call and per
// solver-side blocking call.
//
// B/op and allocs/op show the merge loop's per-phase cost. rounded runs 20
// merge phases here against det's 1, yet allocates what det does (5.63 MB
// and about 42k allocations each on a 2-vCPU VM with go1.24): every node
// re-borrows its moat-book replicas and its collect stream buffer each
// phase instead of allocating them. Before that, rounded took 14.24 MB
// and 197,916 allocations, against det's 5.75 MB and 48,414. rand takes
// 5.91 MB and about 53k allocations: its driven collects reuse the
// tree's stream buffer, each node's random source computes its one or
// two draws without building math/rand's 4.9 KB state (see
// congest.Host.Rand), each node's LE list is a slice, not two maps, and
// each node reuses one census filter. As a blocking program with a full
// math/rand source per node it took 16.39 MB and 141k allocations.
func BenchmarkSolveRoadmesh(b *testing.B) {
	gen, err := workload.Generate("roadmesh", workload.Params{N: 1024, K: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, algo := range []string{"det", "rand", "rounded"} {
		b.Run(algo, func(b *testing.B) {
			spec := steinerforest.Spec{Algorithm: algo, NoCertificate: true, Arena: congest.NewArenaPool()}
			res, err := steinerforest.Solve(gen.Instance, spec) // warms the pool
			if err != nil {
				b.Fatal(err)
			}
			subs0, sw0 := congest.NodeResumes(), congest.CoroSwitches()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := steinerforest.Solve(gen.Instance, spec); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(res.Stats.Rounds), "rounds/op")
			b.ReportMetric(float64(congest.NodeResumes()-subs0)/float64(b.N), "submissions/op")
			b.ReportMetric(float64(congest.CoroSwitches()-sw0)/float64(b.N), "switches/op")
		})
	}
}
