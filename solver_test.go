package steinerforest_test

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	steinerforest "steinerforest"
	"steinerforest/internal/graph"
)

func specInstance(seed int64, n, k int) *steinerforest.Instance {
	rng := rand.New(rand.NewSource(seed))
	g := graph.GNP(n, 0.2, graph.RandomWeights(rng, 50), rng)
	ins := steinerforest.NewInstance(g)
	perm := rng.Perm(n)
	for c := 0; c < k; c++ {
		ins.SetComponent(c, perm[2*c], perm[2*c+1])
	}
	return ins
}

func TestRegistryHasBuiltins(t *testing.T) {
	have := map[string]bool{}
	for _, name := range steinerforest.Algorithms() {
		have[name] = true
	}
	for _, want := range []string{"det", "rounded", "rand", "trunc", "khan", "central"} {
		if !have[want] {
			t.Errorf("registry missing built-in %q (have %v)", want, steinerforest.Algorithms())
		}
	}
}

func TestUnknownAlgorithmRejected(t *testing.T) {
	ins := specInstance(1, 12, 1)
	if _, err := steinerforest.Solve(ins, steinerforest.Spec{Algorithm: "no-such-solver"}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	// Validate is the one place that rejects it, naming every solver.
	err := steinerforest.Spec{Algorithm: "no-such-solver"}.Validate()
	if err == nil || !strings.Contains(err.Error(), "[central det khan rand rounded trunc]") {
		t.Errorf("Validate of an unknown algorithm = %v, want an error listing the solvers", err)
	}
}

// TestSolverDeterminismGolden: for every distributed solver, the same seed
// must produce identical Stats and weight across repeated runs.
func TestSolverDeterminismGolden(t *testing.T) {
	ins := specInstance(7, 24, 3)
	for _, algo := range []string{"det", "rounded", "rand", "trunc", "khan"} {
		base := steinerforest.Spec{Algorithm: algo, Seed: 13, NoCertificate: true}
		first, err := steinerforest.Solve(ins, base)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		repeat, err := steinerforest.Solve(ins, base)
		if err != nil {
			t.Fatalf("%s repeat: %v", algo, err)
		}
		if !reflect.DeepEqual(first.Stats, repeat.Stats) {
			t.Errorf("%s: repeat diverged: %+v vs %+v", algo, first.Stats, repeat.Stats)
		}
		if first.Weight != repeat.Weight {
			t.Errorf("%s: repeat weight %d vs %d", algo, first.Weight, repeat.Weight)
		}
	}
}

func TestNoCertificateSkipsOracle(t *testing.T) {
	ins := specInstance(9, 16, 2)
	res, err := steinerforest.Solve(ins, steinerforest.Spec{Algorithm: "det", NoCertificate: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.LowerBound != 0 {
		t.Errorf("LowerBound = %v, want 0 with NoCertificate", res.LowerBound)
	}
	certified, err := steinerforest.Solve(ins, steinerforest.Spec{Algorithm: "det"})
	if err != nil {
		t.Fatal(err)
	}
	if certified.LowerBound <= 0 {
		t.Error("certificate missing on default run")
	}
	if float64(certified.Weight) > 2*certified.LowerBound+1e-9 {
		t.Errorf("guarantee violated: %d vs %.2f", certified.Weight, certified.LowerBound)
	}
}
