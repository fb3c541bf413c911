package steinerforest_test

// One testing.B benchmark per table/figure of the evaluation, wrapping the
// experiment runners of internal/bench at a reduced scale so `go test
// -bench=.` regenerates every result quickly; `go run ./cmd/dsfbench`
// produces the full-size tables recorded in the committed BENCH_*.json
// snapshots (see the README's Commands section).

import (
	"math/rand"
	"testing"

	steinerforest "steinerforest"
	"steinerforest/internal/bench"
	"steinerforest/internal/graph"
	"steinerforest/internal/moat"
	"steinerforest/internal/steiner"
)

func benchTable(b *testing.B, run func(bench.Scale) *bench.Table) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tab := run(bench.Scale(3))
		if len(tab.Rows) == 0 {
			b.Fatalf("%s produced no rows", tab.ID)
		}
	}
}

func BenchmarkT1DeterministicRounds(b *testing.B)  { benchTable(b, bench.T1) }
func BenchmarkT1bRoundedPhases(b *testing.B)       { benchTable(b, bench.T1b) }
func BenchmarkT2ApproximationQuality(b *testing.B) { benchTable(b, bench.T2) }
func BenchmarkT3RandomizedRounds(b *testing.B)     { benchTable(b, bench.T3) }
func BenchmarkT4KhanComparison(b *testing.B)       { benchTable(b, bench.T4) }
func BenchmarkT5MSTSpecialization(b *testing.B)    { benchTable(b, bench.T5) }
func BenchmarkT6TruncationCrossover(b *testing.B)  { benchTable(b, bench.T6) }
func BenchmarkF1LowerBoundGadgets(b *testing.B)    { benchTable(b, bench.F1) }

// Micro-benchmarks of the load-bearing substrates.

func benchInstance(n, k int, seed int64) *steiner.Instance {
	rng := rand.New(rand.NewSource(seed))
	g := graph.GNP(n, 3.0/float64(n), graph.RandomWeights(rng, 64), rng)
	ins := steiner.NewInstance(g)
	perm := rng.Perm(n)
	for c := 0; c < k; c++ {
		ins.SetComponent(c, perm[2*c], perm[2*c+1])
	}
	return ins
}

func BenchmarkCentralizedMoatGrowing(b *testing.B) {
	ins := benchInstance(120, 6, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := moat.SolveAKR(ins); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDistributedDeterministic(b *testing.B) {
	ins := benchInstance(48, 3, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := steinerforest.Solve(ins, steinerforest.Spec{Algorithm: "det"}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDistributedRandomized(b *testing.B) {
	ins := benchInstance(48, 3, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := steinerforest.Solve(ins, steinerforest.Spec{Algorithm: "rand", Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExactSteinerTree(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	g := graph.GNP(60, 0.1, graph.RandomWeights(rng, 32), rng)
	ts := rng.Perm(60)[:8]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := moat.ExactSteinerTree(g, ts); err != nil {
			b.Fatal(err)
		}
	}
}
