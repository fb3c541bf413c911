package steinerforest_test

// Cross-module integration and property tests: full pipelines from instance
// construction through distributed solving to verification, exercised over
// randomized families with testing/quick-style invariants.

import (
	"math/rand"
	"testing"
	"testing/quick"

	steinerforest "steinerforest"
	"steinerforest/internal/graph"
	"steinerforest/internal/moat"
	"steinerforest/internal/steiner"
)

// TestQuickAllSolversAgreeOnFeasibility drives every solver over randomized
// instances and checks the shared invariants: feasible, certified, and the
// two deterministic variants within their guarantee of the same dual bound.
func TestQuickAllSolversAgreeOnFeasibility(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(15)
		g := graph.GNP(n, 0.25, graph.RandomWeights(rng, 100), rng)
		ins := steinerforest.NewInstance(g)
		perm := rng.Perm(n)
		k := 1 + rng.Intn(3)
		for c := 0; c < k && 2*c+1 < n; c++ {
			ins.SetComponent(c, perm[2*c], perm[2*c+1])
		}
		det, err := steinerforest.Solve(ins, steinerforest.Spec{Algorithm: "det", Seed: seed})
		if err != nil {
			t.Logf("det: %v", err)
			return false
		}
		rounded, err := steinerforest.Solve(ins, steinerforest.Spec{Algorithm: "rounded", EpsNum: 1, EpsDen: 2, Seed: seed})
		if err != nil {
			t.Logf("rounded: %v", err)
			return false
		}
		lb := det.LowerBound
		if lb <= 0 {
			return k == 0
		}
		if float64(det.Weight) > 2*lb+1e-9 {
			t.Logf("det ratio violated: %d vs %.2f", det.Weight, lb)
			return false
		}
		if float64(rounded.Weight) > 2.5*lb+1e-9 {
			t.Logf("rounded ratio violated: %d vs %.2f", rounded.Weight, lb)
			return false
		}
		if err := steinerforest.Verify(ins.Minimalize(), det.Solution); err != nil {
			return false
		}
		return steinerforest.Verify(ins.Minimalize(), rounded.Solution) == nil
	}
	cfg := &quick.Config{MaxCount: 12}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestRequestsPipelineEndToEnd drives the DSF-CR input form through both
// the centralized transformation and a distributed solve.
func TestRequestsPipelineEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		n := 12 + rng.Intn(10)
		g := graph.GNP(n, 0.3, graph.RandomWeights(rng, 30), rng)
		req := steinerforest.NewRequests(g)
		perm := rng.Perm(n)
		// A chain of requests that must collapse into one component, plus a
		// separate pair.
		req.Add(perm[0], perm[1])
		req.Add(perm[1], perm[2])
		req.Add(perm[3], perm[4])
		ins := req.ToInstance()
		if ins.NumComponents() != 2 {
			t.Fatalf("trial %d: k = %d, want 2", trial, ins.NumComponents())
		}
		res, err := steinerforest.Solve(ins, steinerforest.Spec{Algorithm: "det", Seed: int64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		// The chain members must be pairwise connected in the output.
		uf := graph.NewUnionFind(n)
		for _, e := range res.Solution.Edges() {
			edge := g.Edge(e)
			uf.Union(edge.U, edge.V)
		}
		if !uf.Connected(perm[0], perm[2]) || !uf.Connected(perm[3], perm[4]) {
			t.Fatalf("trial %d: requests not satisfied", trial)
		}
	}
}

// TestSingletonComponentsHandledDistributedly feeds unminimalized instances
// (with singleton labels) directly to the distributed solvers: the Lemma
// 2.4 census inside the protocol must drop them.
func TestSingletonComponentsHandledDistributedly(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	g := graph.GNP(16, 0.3, graph.RandomWeights(rng, 20), rng)
	ins := steinerforest.NewInstance(g)
	ins.SetComponent(0, 1, 7)
	ins.SetComponent(1, 3) // singleton: must be ignored, not connected
	ins.SetComponent(2, 5) // another singleton
	det, err := steinerforest.Solve(ins, steinerforest.Spec{Algorithm: "det"})
	if err != nil {
		t.Fatal(err)
	}
	if err := steinerforest.Verify(ins.Minimalize(), det.Solution); err != nil {
		t.Fatal(err)
	}
	rnd, err := steinerforest.Solve(ins, steinerforest.Spec{Algorithm: "rand", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := steinerforest.Verify(ins.Minimalize(), rnd.Solution); err != nil {
		t.Fatal(err)
	}
}

// TestQuickPruneIdempotent: pruning a pruned solution changes nothing.
func TestQuickPruneIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(12)
		g := graph.GNP(n, 0.3, graph.RandomWeights(rng, 16), rng)
		ins := steiner.NewInstance(g)
		perm := rng.Perm(n)
		ins.SetComponent(0, perm[0], perm[1], perm[2])
		full := steiner.NewSolution(g)
		for i := 0; i < g.M(); i++ {
			full.Add(i)
		}
		once := steiner.Prune(ins, full)
		twice := steiner.Prune(ins, once)
		if once.Size() != twice.Size() {
			return false
		}
		for i := range once.Selected {
			if once.Selected[i] != twice.Selected[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestQuickDualBoundMonotone: the dual lower bound never exceeds the weight
// of ANY feasible solution we can construct, including the pruned full edge
// set (Lemma C.4's statement quantifies over all feasible F).
func TestQuickDualBoundBelowArbitraryFeasible(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(10)
		g := graph.GNP(n, 0.35, graph.RandomWeights(rng, 24), rng)
		ins := steiner.NewInstance(g)
		perm := rng.Perm(n)
		ins.SetComponent(0, perm[0], perm[1])
		ins.SetComponent(1, perm[2], perm[3])
		res, err := moat.SolveAKR(ins)
		if err != nil {
			return false
		}
		full := steiner.NewSolution(g)
		for i := 0; i < g.M(); i++ {
			full.Add(i)
		}
		arbitrary := steiner.Prune(ins, full) // feasible, generally suboptimal
		return res.DualSum.Float() <= float64(arbitrary.Weight(g))+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestBandwidthIsRespectedEndToEnd runs a full deterministic solve with a
// tight (but sufficient) bandwidth and confirms no message exceeded it.
func TestBandwidthIsRespectedEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	g := graph.GNP(20, 0.25, graph.RandomWeights(rng, 50), rng)
	ins := steinerforest.NewInstance(g)
	perm := rng.Perm(20)
	ins.SetComponent(0, perm[0], perm[1])
	ins.SetComponent(1, perm[2], perm[3])
	res, err := steinerforest.Solve(ins, steinerforest.Spec{Algorithm: "det", Bandwidth: 512})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MaxMessageBits > 512 {
		t.Errorf("message of %d bits exceeded budget", res.Stats.MaxMessageBits)
	}
	if res.Stats.MaxMessageBits == 0 {
		t.Error("no messages recorded")
	}
}
