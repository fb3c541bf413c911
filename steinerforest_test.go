package steinerforest_test

import (
	"math/rand"
	"testing"

	steinerforest "steinerforest"
	"steinerforest/internal/graph"
)

func lineInstance(n int) (*steinerforest.Graph, *steinerforest.Instance) {
	g := steinerforest.NewGraph(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1, 1)
	}
	ins := steinerforest.NewInstance(g)
	ins.SetComponent(0, 0, n-1)
	return g, ins
}

func TestPublicDeterministic(t *testing.T) {
	g, ins := lineInstance(6)
	res, err := steinerforest.Solve(ins, steinerforest.Spec{Algorithm: "det", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Weight != 5 {
		t.Errorf("weight = %d", res.Weight)
	}
	if res.Stats == nil || res.Stats.Rounds == 0 {
		t.Error("missing stats")
	}
	if res.LowerBound <= 0 || float64(res.Weight) > 2*res.LowerBound {
		t.Errorf("certificate violated: W=%d LB=%.2f", res.Weight, res.LowerBound)
	}
	if err := steinerforest.Verify(ins, res.Solution); err != nil {
		t.Error(err)
	}
	_ = g
}

func TestPublicRandomizedAndRounded(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.GNP(20, 0.25, graph.RandomWeights(rng, 20), rng)
	ins := steinerforest.NewInstance(g)
	perm := rng.Perm(20)
	ins.SetComponent(0, perm[0], perm[1])
	ins.SetComponent(1, perm[2], perm[3])

	for name, solve := range map[string]func() (*steinerforest.Result, error){
		"randomized": func() (*steinerforest.Result, error) {
			return steinerforest.Solve(ins, steinerforest.Spec{Algorithm: "rand", Seed: 2})
		},
		"truncated": func() (*steinerforest.Result, error) {
			return steinerforest.Solve(ins, steinerforest.Spec{Algorithm: "trunc", Seed: 2})
		},
		"rounded": func() (*steinerforest.Result, error) {
			return steinerforest.Solve(ins, steinerforest.Spec{Algorithm: "rounded", EpsNum: 1, EpsDen: 2})
		},
		"centralized": func() (*steinerforest.Result, error) {
			return steinerforest.Solve(ins, steinerforest.Spec{Algorithm: "central"})
		},
	} {
		res, err := solve()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := steinerforest.Verify(ins, res.Solution); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if res.LowerBound <= 0 {
			t.Errorf("%s: no certificate", name)
		}
	}
}

func TestPublicRequests(t *testing.T) {
	g := steinerforest.NewGraph(5)
	for i := 0; i+1 < 5; i++ {
		g.AddEdge(i, i+1, 1)
	}
	req := steinerforest.NewRequests(g)
	req.Add(0, 4)
	res, err := steinerforest.Solve(req.ToInstance(), steinerforest.Spec{Algorithm: "det"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Weight != 4 {
		t.Errorf("weight = %d", res.Weight)
	}
}
