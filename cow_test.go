package steinerforest_test

import (
	"testing"

	steinerforest "steinerforest"
	"steinerforest/internal/moat"
	"steinerforest/internal/workload"
)

// TestCoWBookMatchesEagerClones pins the borrow-first (copy-on-write)
// moat.Book replicas against their plainest possible semantics: forcing
// every CloneInto to copy immediately (moat.EagerClones) must not change
// a single observable of
// any solver on any family — same forest, same weight, same certificate
// bound, same distributed Stats. The certificate stays on so the central
// AKR oracle's Book usage is exercised too, not just the solvers'.
func TestCoWBookMatchesEagerClones(t *testing.T) {
	defer func() { moat.EagerClones = false }()
	families := []string{"planted", "grid2d", "geometric"}
	algos := []string{"det", "rounded", "rand", "trunc", "khan", "central"}
	for _, fam := range families {
		gen, err := workload.Generate(fam, workload.Params{N: 40, K: 3, Seed: 23})
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		ins := gen.Instance
		for _, algo := range algos {
			t.Run(fam+"/"+algo, func(t *testing.T) {
				spec := steinerforest.Spec{Algorithm: algo, Seed: 5}
				moat.EagerClones = false
				cow, err := steinerforest.Solve(ins, spec)
				if err != nil {
					t.Fatalf("cow run: %v", err)
				}
				moat.EagerClones = true
				eager, err := steinerforest.Solve(ins, spec)
				moat.EagerClones = false
				if err != nil {
					t.Fatalf("eager run: %v", err)
				}
				if cow.Weight != eager.Weight {
					t.Errorf("weight %d != %d", cow.Weight, eager.Weight)
				}
				if cow.LowerBound != eager.LowerBound || cow.Certified != eager.Certified {
					t.Errorf("certificate (%v, %v) != (%v, %v)",
						cow.LowerBound, cow.Certified, eager.LowerBound, eager.Certified)
				}
				if cow.Phases != eager.Phases || cow.Merges != eager.Merges || cow.Levels != eager.Levels {
					t.Errorf("progress counters (%d,%d,%d) != (%d,%d,%d)",
						cow.Phases, cow.Merges, cow.Levels, eager.Phases, eager.Merges, eager.Levels)
				}
				switch a, b := cow.Stats, eager.Stats; {
				case (a == nil) != (b == nil):
					t.Errorf("stats presence %v != %v", a != nil, b != nil)
				case a != nil && (a.Rounds != b.Rounds || a.Messages != b.Messages ||
					a.Bits != b.Bits || a.MaxMessageBits != b.MaxMessageBits ||
					a.DroppedToTerminated != b.DroppedToTerminated):
					t.Errorf("stats diverged: %+v vs %+v", *a, *b)
				}
				ce, ee := cow.Solution.Edges(), eager.Solution.Edges()
				if len(ce) != len(ee) {
					t.Fatalf("forest size %d != %d", len(ce), len(ee))
				}
				for i := range ce {
					if ce[i] != ee[i] {
						t.Fatalf("forest differs at %d: edge %d != %d", i, ce[i], ee[i])
					}
				}
			})
		}
	}
}
