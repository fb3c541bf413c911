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
// time only — the A/B handle for scheduler changes such as the quiescence
// loop's parking. Besides rounds and messages it reports the scheduler's
// work per solve, its submissions (one per request): 29,792 / 99,590 /
// 44,891 for det / rand / rounded, in 233 / 966 / 330 rounds with
// 39,605 / 170,934 / 54,021 messages. Every collect is one pass through
// the tree and the first rides the BFS build; with the first collect
// after the build, each downcast waiting for its upcast, det's coverage
// exchanged every phase and an end marker wire after every exit list
// they took 35,577 / 104,348 / 51,694 submissions, 292 / 1,028 / 391
// rounds and 46,059 / 183,210 / 64,883 messages. rand's per-level label census
// rides its routing loop, up with the routes and down on the loop's exit
// wave; as a collect of its own after each loop it took 140,520
// submissions, 1,374 rounds and 203,701 messages. While rand routed and
// delegated in two quiescence loops per level it took 188,194
// submissions, 1,822 rounds and 224,126 messages. With a control round
// after every payload round of the quiescence loop they took 43,820 /
// 257,219 / 136,457 submissions and 397 / 2,916 / 1,013 rounds (rand's
// then also ran a level-0 census, which now reads the label census's
// stream instead).
//
// rounded runs 2 merge phases here for 19 threshold checks: its
// collected stream runs past every check that changes no moat's
// activity. Ending a phase at every check whose phase held a merge took
// 5 phases, 694 rounds, 127,488 messages, 104,424 submissions and
// 33–34 ms per solve, against 16–22 ms now (2-vCPU VM, go1.24). Before
// that, skipping only the phases its collected streams proved empty took
// it from 20 phases, 3,392 rounds, 497,218 submissions and 183–201 ms to
// 1,013 rounds and 136,457 submissions.
//
// B/op and allocs/op show the merge loop's per-phase cost. rounded runs
// more merge phases than det's 1, yet allocates what det does (5.36 MB
// and about 39k allocations each on a 2-vCPU VM with go1.24; 5.57 MB and
// 42k while the terminal announcement was a collect of its own): every node
// re-borrows its moat-book replicas and its collect stream buffer each
// phase instead of allocating them. Before that, rounded took 14.24 MB
// and 197,916 allocations, against det's 5.75 MB and 48,414. rand takes
// 6.12 MB and about 51k allocations, of which each node's copy of the
// label census, which the truncated embedding's S election would
// overwrite in the tree's stream buffer, is about 0.3 MB (5.82 MB while
// the census followed the embedding; 5.83 MB and 52k with a collected
// census per level, 5.86 MB and 53k with its routing and delegation in
// two loops per level): its exit lists and driven collects reuse the
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
			subs0 := congest.NodeResumes()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := steinerforest.Solve(gen.Instance, spec); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(res.Stats.Rounds), "rounds/op")
			b.ReportMetric(float64(res.Stats.Messages), "messages/op")
			b.ReportMetric(float64(congest.NodeResumes()-subs0)/float64(b.N), "submissions/op")
		})
	}
}
