package moat

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"steinerforest/internal/graph"
	"steinerforest/internal/steiner"
	"steinerforest/internal/workload"
)

// randomInstance builds a connected random instance with k components of
// 2-4 terminals each.
func randomInstance(rng *rand.Rand, n, k int, maxW int64) *steiner.Instance {
	g := graph.GNP(n, 0.25, graph.RandomWeights(rng, maxW), rng)
	ins := steiner.NewInstance(g)
	perm := rng.Perm(n)
	idx := 0
	for c := 0; c < k && idx+1 < n; c++ {
		size := 2 + rng.Intn(3)
		for j := 0; j < size && idx < n; j++ {
			ins.SetComponent(c, perm[idx])
			idx++
		}
	}
	return ins
}

func TestAKRTwoTerminalsIsShortestPath(t *testing.T) {
	// Path of 5 with a heavy chord; connecting the endpoints should select
	// exactly the shortest path.
	g := graph.Path(5, graph.UnitWeights)
	g.AddEdge(0, 4, 100)
	ins := steiner.NewInstance(g)
	ins.SetComponent(0, 0, 4)
	res, err := SolveAKR(ins)
	if err != nil {
		t.Fatal(err)
	}
	if res.Weight != 4 {
		t.Errorf("weight = %d, want 4", res.Weight)
	}
	if got := res.Pruned.Size(); got != 4 {
		t.Errorf("size = %d, want 4", got)
	}
}

func TestAKREmptyInstance(t *testing.T) {
	ins := steiner.NewInstance(graph.Path(4, graph.UnitWeights))
	res, err := SolveAKR(ins)
	if err != nil {
		t.Fatal(err)
	}
	if res.Weight != 0 || res.Pruned.Size() != 0 {
		t.Errorf("want empty solution, got weight %d", res.Weight)
	}
}

func TestAKRSingletonComponentIgnored(t *testing.T) {
	g := graph.Path(4, graph.UnitWeights)
	ins := steiner.NewInstance(g)
	ins.SetComponent(0, 1) // singleton: minimalized away
	res, err := SolveAKR(ins)
	if err != nil {
		t.Fatal(err)
	}
	if res.Weight != 0 {
		t.Errorf("weight = %d, want 0", res.Weight)
	}
}

func TestAKRInfeasible(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	ins := steiner.NewInstance(g)
	ins.SetComponent(0, 0, 3)
	if _, err := SolveAKR(ins); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestAKRStarTwoComponents(t *testing.T) {
	// Star center 0 with 4 unit spokes; components {1,2}, {3,4}. Both need
	// two spokes through the center; OPT = 4.
	g := graph.Star(5, graph.UnitWeights)
	ins := steiner.NewInstance(g)
	ins.SetComponent(0, 1, 2)
	ins.SetComponent(1, 3, 4)
	res, err := SolveAKR(ins)
	if err != nil {
		t.Fatal(err)
	}
	if res.Weight != 4 {
		t.Errorf("weight = %d, want 4", res.Weight)
	}
}

func TestAKRFeasibleForestMinimalAndCertified(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		n := 8 + rng.Intn(25)
		k := 1 + rng.Intn(4)
		ins := randomInstance(rng, n, k, 32)
		res, err := SolveAKR(ins)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := steiner.Verify(ins.Minimalize(), res.Pruned); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !steiner.IsForest(ins.G, res.Pruned) {
			t.Fatalf("trial %d: not a forest", trial)
		}
		if !steiner.IsMinimal(ins.Minimalize(), res.Pruned) {
			t.Fatalf("trial %d: not minimal", trial)
		}
		if !res.DualSum.IsZero() {
			ratio := res.Approx()
			if ratio > 2.0000001 {
				t.Fatalf("trial %d: ratio %.4f > 2", trial, ratio)
			}
		}
		if res.Phases > 2*k {
			t.Fatalf("trial %d: %d phases > 2k = %d (Lemma 4.4)", trial, res.Phases, 2*k)
		}
	}
}

func TestAKRAgainstExactSteinerTree(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 25; trial++ {
		n := 8 + rng.Intn(12)
		g := graph.GNP(n, 0.3, graph.RandomWeights(rng, 20), rng)
		ins := steiner.NewInstance(g)
		var ts []int
		for _, v := range rng.Perm(n)[:3+rng.Intn(4)] {
			ts = append(ts, v)
			ins.SetComponent(0, v)
		}
		res, err := SolveAKR(ins)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := ExactSteinerTree(g, ts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Weight < opt {
			t.Fatalf("trial %d: weight %d below optimum %d", trial, res.Weight, opt)
		}
		if float64(res.Weight) > 2*float64(opt)+1e-9 {
			t.Fatalf("trial %d: weight %d > 2x optimum %d", trial, res.Weight, opt)
		}
		// The dual bound must be a true lower bound on OPT.
		if res.DualSum.Float() > float64(opt)+1e-9 {
			t.Fatalf("trial %d: dual %.3f exceeds OPT %d", trial, res.DualSum.Float(), opt)
		}
	}
}

func TestAKRMSTSpecialization(t *testing.T) {
	// k=1, t=n: the paper notes the output is an exact MST.
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 15; trial++ {
		n := 5 + rng.Intn(12)
		g := graph.GNP(n, 0.4, graph.RandomWeights(rng, 1000), rng)
		ins := steiner.NewInstance(g)
		for v := 0; v < n; v++ {
			ins.SetComponent(0, v)
		}
		res, err := SolveAKR(ins)
		if err != nil {
			t.Fatal(err)
		}
		_, mst := g.MST()
		if res.Weight != mst {
			t.Fatalf("trial %d: weight %d != MST %d", trial, res.Weight, mst)
		}
	}
}

func TestRoundedFeasibleAndBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 40; trial++ {
		n := 8 + rng.Intn(20)
		k := 1 + rng.Intn(3)
		ins := randomInstance(rng, n, k, 64)
		res, err := SolveRounded(ins, 1, 2) // ε = 1/2
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := steiner.Verify(ins.Minimalize(), res.Pruned); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Certify against Algorithm 1's dual lower bound.
		akr, err := SolveAKR(ins)
		if err != nil {
			t.Fatal(err)
		}
		if !akr.DualSum.IsZero() {
			ratio := float64(res.Weight) / akr.DualSum.Float()
			if ratio > 2.5000001 { // 2+ε with ε=1/2
				t.Fatalf("trial %d: rounded ratio %.4f > 2.5", trial, ratio)
			}
		}
		if res.GrowthPhases == 0 && res.Weight > 0 {
			t.Fatalf("trial %d: expected at least one growth phase", trial)
		}
	}
}

func TestRoundedRejectsBadEpsilon(t *testing.T) {
	ins := steiner.NewInstance(graph.Path(3, graph.UnitWeights))
	if _, err := SolveRounded(ins, 0, 1); err == nil {
		t.Error("eps=0 accepted")
	}
	if _, err := SolveRounded(ins, 1, 0); err == nil {
		t.Error("den=0 accepted")
	}
}

func TestThresholdAdvance(t *testing.T) {
	th := &thresholds{num: 1, den: 2, current: 1} // ε = 1/2, factor 1.25
	var seq []int64
	for i := 0; i < 8; i++ {
		seq = append(seq, th.current)
		th.advance()
	}
	// Strictly increasing, and eventually multiplies by ~1.25.
	for i := 1; i < len(seq); i++ {
		if seq[i-1] >= seq[i] {
			t.Fatalf("thresholds not increasing: %v", seq)
		}
	}
	if seq[0] != 1 || seq[1] != 2 {
		t.Errorf("seq = %v", seq)
	}
	if got := seq[len(seq)-1]; got < 8 {
		t.Errorf("thresholds too slow: %v", seq)
	}
}

func TestExactSteinerTreeKnown(t *testing.T) {
	// Star center 0, unit spokes to 1..4; terminals {1,2,3}: OPT = 3.
	g := graph.Star(5, graph.UnitWeights)
	got, err := ExactSteinerTree(g, []int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Errorf("opt = %d, want 3", got)
	}
	// Two terminals: shortest path.
	g2 := graph.Path(6, graph.UnitWeights)
	if got, _ := ExactSteinerTree(g2, []int{0, 5}); got != 5 {
		t.Errorf("opt = %d, want 5", got)
	}
	// Single terminal: zero.
	if got, _ := ExactSteinerTree(g2, []int{3}); got != 0 {
		t.Errorf("opt = %d, want 0", got)
	}
}

func TestExactSteinerTreeLimits(t *testing.T) {
	g := graph.Complete(20, graph.UnitWeights)
	ts := make([]int, maxExactTerminals+1)
	for i := range ts {
		ts[i] = i
	}
	if _, err := ExactSteinerTree(g, ts); err == nil {
		t.Error("expected terminal-limit error")
	}
	g2 := graph.New(4)
	g2.AddEdge(0, 1, 1)
	g2.AddEdge(2, 3, 1)
	if _, err := ExactSteinerTree(g2, []int{0, 3}); !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestExactMatchesMetricMSTOnTrees(t *testing.T) {
	// On a tree, the optimal Steiner tree is the minimal spanning subtree:
	// compare against pruning the full tree.
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		n := 6 + rng.Intn(10)
		g := graph.RandomTree(n, graph.RandomWeights(rng, 9), rng)
		ins := steiner.NewInstance(g)
		var ts []int
		for _, v := range rng.Perm(n)[:3] {
			ts = append(ts, v)
			ins.SetComponent(0, v)
		}
		opt, err := ExactSteinerTree(g, ts)
		if err != nil {
			t.Fatal(err)
		}
		full := steiner.NewSolution(g)
		for i := 0; i < g.M(); i++ {
			full.Add(i)
		}
		want := steiner.Prune(ins, full).Weight(g)
		if opt != want {
			t.Fatalf("trial %d: DW %d != tree-prune %d", trial, opt, want)
		}
	}
}

func TestMergeEventsAreConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ins := randomInstance(rng, 20, 3, 50)
	res, err := SolveAKR(ins)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Merges) == 0 {
		t.Fatal("expected merges")
	}
	for i, m := range res.Merges {
		if m.Mu.Sign() < 0 {
			t.Errorf("merge %d has negative mu", i)
		}
		if m.ActiveMoats < 1 {
			t.Errorf("merge %d has %d active moats", i, m.ActiveMoats)
		}
	}
	// Merge count: at most t-1.
	if len(res.Merges) > ins.NumTerminals()-1 {
		t.Errorf("merges = %d > t-1", len(res.Merges))
	}
}

// countingCtx fires after a fixed number of Err checks, making the
// oracle's cancellation points observable and deterministic: checks
// counts the calls that found the context live.
type countingCtx struct {
	context.Context
	checks, fireAt int
}

func (c *countingCtx) Err() error {
	if c.checks >= c.fireAt {
		return context.Canceled
	}
	c.checks++
	return nil
}

// TestSolveAKRCtxCancelsWithinOneEvent pins the oracle's cancellation
// contract: a live context leaves the result identical to SolveAKR's, the
// context is checked at least once per merge event (and per setup
// shortest-path run), and a check that finds it fired returns an error
// wrapping the cause — so a cancelled oracle stops within one event.
func TestSolveAKRCtxCancelsWithinOneEvent(t *testing.T) {
	gen, err := workload.Generate("planted", workload.Params{N: 400, K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ins := gen.Instance
	start := time.Now()
	want, err := SolveAKR(ins)
	if err != nil {
		t.Fatal(err)
	}
	full := time.Since(start)

	live := &countingCtx{Context: context.Background(), fireAt: math.MaxInt}
	got, err := SolveAKRCtx(live, ins)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("a live context changed the oracle's result")
	}
	if events := len(want.Merges) + len(ins.Terminals()); live.checks < events {
		t.Fatalf("%d context checks for %d merge events and setup runs", live.checks, events)
	}
	for _, fireAt := range []int{0, live.checks / 10, live.checks / 2, live.checks - 1} {
		ctx := &countingCtx{Context: context.Background(), fireAt: fireAt}
		if _, err := SolveAKRCtx(ctx, ins); !errors.Is(err, context.Canceled) {
			t.Fatalf("fired at check %d: err = %v, want context.Canceled", fireAt, err)
		}
	}

	// Wall clock: cancelled 5 ms into a ~100 ms run, the oracle returns
	// within one event, far before it would have finished.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(5*time.Millisecond, cancel)
	start = time.Now()
	_, err = SolveAKRCtx(ctx, ins)
	if elapsed := time.Since(start); !errors.Is(err, context.Canceled) || elapsed > full/2 {
		t.Fatalf("cancelled at 5ms: err = %v after %v (uncancelled run: %v)", err, elapsed, full)
	}
}
