package detforest

import (
	"math/rand"
	"reflect"
	"testing"

	"steinerforest/internal/congest"
	"steinerforest/internal/graph"
	"steinerforest/internal/moat"
	"steinerforest/internal/steiner"
)

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

func TestSolveTwoTerminalsPath(t *testing.T) {
	g := graph.Path(6, graph.UnitWeights)
	ins := steiner.NewInstance(g)
	ins.SetComponent(0, 0, 5)
	res, err := Solve(ins)
	if err != nil {
		t.Fatal(err)
	}
	if w := res.Solution.Weight(g); w != 5 {
		t.Errorf("weight = %d, want 5", w)
	}
	if res.Solution.Size() != 5 {
		t.Errorf("size = %d", res.Solution.Size())
	}
}

func TestSolveSelectsShortestPath(t *testing.T) {
	// Heavy chord must be avoided.
	g := graph.Path(5, graph.UnitWeights)
	g.AddEdge(0, 4, 50)
	ins := steiner.NewInstance(g)
	ins.SetComponent(0, 0, 4)
	res, err := Solve(ins)
	if err != nil {
		t.Fatal(err)
	}
	if w := res.Solution.Weight(g); w != 4 {
		t.Errorf("weight = %d, want 4", w)
	}
}

func TestSolveEmptyInstance(t *testing.T) {
	ins := steiner.NewInstance(graph.Grid(3, 3, graph.UnitWeights))
	res, err := Solve(ins)
	if err != nil {
		t.Fatal(err)
	}
	if res.Solution.Size() != 0 {
		t.Errorf("size = %d, want 0", res.Solution.Size())
	}
}

func TestSolveStarComponents(t *testing.T) {
	g := graph.Star(7, graph.UnitWeights)
	ins := steiner.NewInstance(g)
	ins.SetComponent(0, 1, 2)
	ins.SetComponent(1, 3, 4)
	res, err := Solve(ins)
	if err != nil {
		t.Fatal(err)
	}
	if w := res.Solution.Weight(g); w != 4 {
		t.Errorf("weight = %d, want 4", w)
	}
	if !steiner.IsForest(g, res.Solution) {
		t.Error("not a forest")
	}
}

func TestSolveMatchesCentralizedOracle(t *testing.T) {
	// On these tie-free instances the distributed emulation selects a
	// forest of exactly the oracle's weight. That is not so on every
	// tie-free instance: see TestSolveKeepsWholeMerges.
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 25; trial++ {
		n := 8 + rng.Intn(17)
		k := 1 + rng.Intn(3)
		ins := randomInstance(rng, n, k, 1000) // large weights: ties improbable
		want, err := moat.SolveAKR(ins)
		if err != nil {
			t.Fatalf("trial %d oracle: %v", trial, err)
		}
		got, err := Solve(ins)
		if err != nil {
			t.Fatalf("trial %d distributed: %v", trial, err)
		}
		gw := got.Solution.Weight(ins.G)
		if gw != want.Weight {
			t.Fatalf("trial %d: distributed weight %d != oracle %d (n=%d k=%d)",
				trial, gw, want.Weight, n, k)
		}
		if !steiner.IsForest(ins.G, got.Solution) {
			t.Fatalf("trial %d: not a forest", trial)
		}
		if !steiner.IsMinimal(ins.Minimalize(), got.Solution) {
			t.Fatalf("trial %d: not minimal", trial)
		}
		if got.Phases > 2*k {
			t.Fatalf("trial %d: %d phases > 2k=%d", trial, got.Phases, 2*k)
		}
	}
}

// tieFree reports whether ins has distinct edge weights and distinct
// shortest-path distances between its terminals.
func tieFree(ins *steiner.Instance) bool {
	seen := make(map[int64]bool)
	for _, e := range ins.G.Edges() {
		if seen[e.Weight] {
			return false
		}
		seen[e.Weight] = true
	}
	clear(seen)
	ts := ins.Terminals()
	for i, u := range ts {
		sp := ins.G.Dijkstra(u)
		for _, v := range ts[i+1:] {
			if seen[sp.Dist[v]] {
				return false
			}
			seen[sp.Dist[v]] = true
		}
	}
	return true
}

// TestSolveWithinOracleForest pins what det and rounded guarantee against
// their centralized oracles (moat.SolveAKR and moat.SolveRounded at the
// same ε) on every tie-free instance: the forest is a subset of the
// oracle's unpruned Raw forest, and its weight lies between the oracle's
// pruned output and Raw. (It equals the pruned weight on most instances
// but not all; see TestSolveKeepsWholeMerges.) 500 random connected
// instances, n = 8..24, k = 1..4, each solved by det and by rounded at
// four ε.
func TestSolveWithinOracleForest(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 500; {
		n := 8 + rng.Intn(17)
		ins := randomInstance(rng, n, 1+rng.Intn(4), 1_000_000)
		if !ins.G.Connected() || !tieFree(ins) {
			continue
		}
		trial++
		for _, sv := range goldenSolvers {
			var oracle *moat.Result
			var err error
			if sv.eps[1] == 0 {
				oracle, err = moat.SolveAKR(ins)
			} else {
				oracle, err = moat.SolveRounded(ins, sv.eps[0], sv.eps[1])
			}
			if err != nil {
				t.Fatalf("trial %d %s oracle: %v", trial, sv.name, err)
			}
			got, err := solveWith(ins, sv.eps)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, sv.name, err)
			}
			for _, e := range got.Solution.Edges() {
				if !oracle.Raw.Contains(e) {
					t.Fatalf("trial %d %s (n=%d): edge %d is not in the oracle's Raw forest %v", trial, sv.name, n, e, oracle.Raw.Edges())
				}
			}
			if w, raw := got.Solution.Weight(ins.G), oracle.Raw.Weight(ins.G); w < oracle.Weight || w > raw {
				t.Fatalf("trial %d %s (n=%d): weight %d outside [pruned %d, raw %d]", trial, sv.name, n, w, oracle.Weight, raw)
			}
		}
	}
}

// TestSolveKeepsWholeMerges pins a tie-free instance (distinct edge
// weights, distinct terminal distances) on which the emulation's forest
// is heavier than the oracle's output. Both accept the merges 1–7, 1–4,
// 4–6 and 3–4, and Fmin needs all four, so det and rounded mark every
// merge path: the oracle's unpruned Raw forest, weight 17,174. The merge
// paths 1–2–4 and 3–2–4 share edge 2–4, which links label 1's terminals
// to label 0's but connects no demand, and the oracle's Prune, which
// works on physical edges rather than merges, drops it: 16,490.
func TestSolveKeepsWholeMerges(t *testing.T) {
	g := graph.New(9)
	for _, e := range []graph.Edge{
		{U: 0, V: 1, Weight: 2547}, {U: 1, V: 2, Weight: 3808}, {U: 2, V: 3, Weight: 6236},
		{U: 2, V: 4, Weight: 684}, {U: 3, V: 5, Weight: 9352}, {U: 0, V: 6, Weight: 7048},
		{U: 1, V: 7, Weight: 1607}, {U: 5, V: 8, Weight: 2175}, {U: 2, V: 6, Weight: 6447},
		{U: 3, V: 8, Weight: 2096}, {U: 4, V: 6, Weight: 4839}, {U: 4, V: 7, Weight: 8929},
	} {
		g.AddEdge(e.U, e.V, e.Weight)
	}
	ins := steiner.NewInstance(g)
	ins.SetComponent(0, 1, 3, 7)
	ins.SetComponent(1, 4, 6)
	if !tieFree(ins) {
		t.Fatal("the instance has a tied edge weight or terminal distance")
	}
	oracle, err := moat.SolveAKR(ins)
	if err != nil {
		t.Fatal(err)
	}
	if raw := oracle.Raw.Weight(g); oracle.Weight != 16490 || raw != 17174 {
		t.Fatalf("oracle pruned %d, raw %d; want 16490, 17174", oracle.Weight, raw)
	}
	det, err := Solve(ins)
	if err != nil {
		t.Fatal(err)
	}
	rounded, err := SolveRounded(ins, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	for name, res := range map[string]*Result{"det": det, "rounded": rounded} {
		if !reflect.DeepEqual(res.Solution.Edges(), oracle.Raw.Edges()) || res.Merges != 4 {
			t.Errorf("%s: forest %v with %d merges, want the oracle's Raw %v with 4", name, res.Solution.Edges(), res.Merges, oracle.Raw.Edges())
		}
	}
}

func TestSolveCertifiedApproximation(t *testing.T) {
	// Even with unit weights (massive ties), feasibility and the certified
	// 2-approximation against the oracle's dual bound must hold.
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 15; trial++ {
		n := 8 + rng.Intn(12)
		g := graph.GNP(n, 0.3, graph.UnitWeights, rng)
		ins := steiner.NewInstance(g)
		perm := rng.Perm(n)
		ins.SetComponent(0, perm[0], perm[1], perm[2])
		ins.SetComponent(1, perm[3], perm[4])
		oracle, err := moat.SolveAKR(ins)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Solve(ins)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		w := float64(got.Solution.Weight(g))
		if lb := oracle.DualSum.Float(); w > 2*lb+1e-9 {
			t.Fatalf("trial %d: weight %.1f > 2x dual %.1f", trial, w, lb)
		}
	}
}

func TestSolveMSTSpecialization(t *testing.T) {
	// k=1, t=n: output must be an exact MST.
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 8; trial++ {
		n := 6 + rng.Intn(8)
		g := graph.GNP(n, 0.4, graph.RandomWeights(rng, 10000), rng)
		ins := steiner.NewInstance(g)
		for v := 0; v < n; v++ {
			ins.SetComponent(0, v)
		}
		res, err := Solve(ins)
		if err != nil {
			t.Fatal(err)
		}
		_, mst := g.MST()
		if w := res.Solution.Weight(g); w != mst {
			t.Fatalf("trial %d: weight %d != MST %d", trial, w, mst)
		}
	}
}

func TestSolveOnStructuredGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	builders := map[string]func() *steiner.Instance{
		"grid": func() *steiner.Instance {
			g := graph.Grid(4, 5, graph.RandomWeights(rng, 100))
			ins := steiner.NewInstance(g)
			ins.SetComponent(0, 0, 19)
			ins.SetComponent(1, 4, 15)
			return ins
		},
		"cycle": func() *steiner.Instance {
			g := graph.Cycle(12, graph.RandomWeights(rng, 100))
			ins := steiner.NewInstance(g)
			ins.SetComponent(0, 0, 6)
			ins.SetComponent(1, 3, 9)
			return ins
		},
		"caterpillar": func() *steiner.Instance {
			g := graph.Caterpillar(5, 2, graph.RandomWeights(rng, 50))
			ins := steiner.NewInstance(g)
			ins.SetComponent(0, 5, 14)
			return ins
		},
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			ins := build()
			want, err := moat.SolveAKR(ins)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Solve(ins)
			if err != nil {
				t.Fatal(err)
			}
			if gw := got.Solution.Weight(ins.G); gw != want.Weight {
				t.Fatalf("weight %d != oracle %d", gw, want.Weight)
			}
		})
	}
}

func TestSolveRoundsScaleWithKS(t *testing.T) {
	// Theorem 4.17 shape check: rounds within a generous constant of
	// k*s + t + D.
	rng := rand.New(rand.NewSource(37))
	g := graph.GNP(40, 0.15, graph.RandomWeights(rng, 50), rng)
	ins := steiner.NewInstance(g)
	perm := rng.Perm(40)
	for c := 0; c < 4; c++ {
		ins.SetComponent(c, perm[2*c], perm[2*c+1])
	}
	res, err := Solve(ins)
	if err != nil {
		t.Fatal(err)
	}
	s := g.ShortestPathDiameter()
	k := 4
	bound := 40 * (k*s + ins.NumTerminals() + g.Diameter() + 10)
	if res.Stats.Rounds > bound {
		t.Errorf("rounds = %d exceeds generous bound %d (s=%d)", res.Stats.Rounds, bound, s)
	}
}

func TestSolveRoundedFeasibleAndBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 10; trial++ {
		n := 8 + rng.Intn(14)
		k := 1 + rng.Intn(3)
		ins := randomInstance(rng, n, k, 60)
		res, err := SolveRounded(ins, 1, 2) // eps = 1/2
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		work := ins.Minimalize()
		if err := steiner.Verify(work, res.Solution); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		oracle, err := moat.SolveAKR(ins)
		if err != nil {
			t.Fatal(err)
		}
		if oracle.DualSum.IsZero() {
			continue
		}
		ratio := float64(res.Solution.Weight(ins.G)) / oracle.DualSum.Float()
		if ratio > 2.5+1e-9 {
			t.Fatalf("trial %d: rounded ratio %.3f > 2.5", trial, ratio)
		}
	}
}

// TestSolveRoundedMatchesCentralizedRounded runs each ε from fine to
// coarse thresholds: the finer they are, the more threshold checks that
// change nothing a rounded phase's stream runs past (see thresholdChecks).
func TestSolveRoundedMatchesCentralizedRounded(t *testing.T) {
	for _, eps := range [][2]int64{{1, 4}, {1, 2}, {1, 1}, {2, 1}} {
		rng := rand.New(rand.NewSource(67))
		for trial := 0; trial < 40; trial++ {
			n := 8 + rng.Intn(12)
			ins := randomInstance(rng, n, 2, 500)
			want, err := moat.SolveRounded(ins, eps[0], eps[1])
			if err != nil {
				t.Fatal(err)
			}
			got, err := SolveRounded(ins, eps[0], eps[1])
			if err != nil {
				t.Fatalf("eps %d/%d trial %d: %v", eps[0], eps[1], trial, err)
			}
			if gw := got.Solution.Weight(ins.G); gw != want.Weight {
				t.Fatalf("eps %d/%d trial %d: distributed rounded weight %d != oracle %d", eps[0], eps[1], trial, gw, want.Weight)
			}
		}
	}
}

func TestSolveRoundedRejectsBadEpsilon(t *testing.T) {
	ins := steiner.NewInstance(graph.Path(3, graph.UnitWeights))
	if _, err := SolveRounded(ins, 0, 1); err == nil {
		t.Error("eps=0 accepted")
	}
}

// TestMirroredCoverage pins the coverage bookkeeping that replaced the
// per-phase coverage exchange: after a run, the coverage a node tracks for
// its neighbor's side of an edge (nbrCov) equals the coverage the neighbor
// holds for that side (cov), on every edge, in the exact and the rounded
// variant.
func TestMirroredCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	covered := 0
	for trial := 0; trial < 30; trial++ {
		ins := randomInstance(rng, 12+rng.Intn(20), 1+rng.Intn(3), 9)
		for _, eps := range [][2]int64{{}, {1, 2}} {
			labels := ins.Minimalize().Label
			if eps[1] == 0 {
				labels = ins.Label
			}
			out := &sharedOutput{selected: steiner.NewSolution(ins.G)}
			nodes := make([]*nodeState, ins.G.N())
			if _, err := congest.RunDriven(ins.G, func(h *congest.Host) (congest.Request, congest.Driver) {
				nodes[h.ID()] = newNodeState(h, out, labels[h.ID()], eps)
				return nodes[h.ID()].start()
			}); err != nil {
				t.Fatal(err)
			}
			for u, ns := range nodes {
				for p := range ns.cov {
					v := ns.h.Neighbor(p)
					q, _ := nodes[v].h.PortOf(u)
					if got, want := ns.nbrCov[p], nodes[v].cov[q]; got.Cmp(want) != 0 {
						t.Fatalf("trial %d eps %v: node %d tracks %s for node %d's side of their edge, which holds %s", trial, eps, u, got, v, want)
					}
					if !ns.cov[p].IsZero() {
						covered++
					}
				}
			}
		}
	}
	if covered == 0 {
		t.Fatal("no edge was covered; the test lost its coverage")
	}
}
