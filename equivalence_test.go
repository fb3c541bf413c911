package steinerforest_test

import (
	"fmt"
	"testing"

	steinerforest "steinerforest"
	"steinerforest/internal/congest"
	"steinerforest/internal/workload"
)

// TestFastPathEquivalence pins the engine's core contract: the idle/sleep/
// relay/drive fast paths and a warm arena pool may change how fast
// simulated rounds pass, but never what happens in them. Every registered
// distributed solver, run over a sample of workload families, must produce
// identical Stats (Rounds, Messages, Bits, MaxMessageBits) and an
// identical forest with the fast paths forced off and on, pooled and
// unpooled. The reference run has the fast paths off and no pool — plain
// per-round Exchange loops, the engine's definition of the model.
func TestFastPathEquivalence(t *testing.T) {
	families := []string{"planted", "grid2d", "geometric"}
	algos := []string{"det", "rounded", "rand", "trunc", "khan"}
	for _, fam := range families {
		gen, err := workload.Generate(fam, workload.Params{N: 48, K: 3, Seed: 11})
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		ins := gen.Instance
		// One arena pool per family: the pooled variants below reuse warm
		// engine tables across variants AND across algorithms on the same
		// graph, which is exactly the serving access pattern.
		pool := congest.NewArenaPool()
		for _, algo := range algos {
			t.Run(fam+"/"+algo, func(t *testing.T) {
				base := steinerforest.Spec{Algorithm: algo, Seed: 7, NoCertificate: true}
				refSpec := base
				refSpec.NoFastPath = true
				ref, err := steinerforest.Solve(ins, refSpec)
				if err != nil {
					t.Fatalf("reference run: %v", err)
				}
				for _, v := range []struct {
					noFast bool
					pooled bool
				}{
					{false, false}, // fast on
					{false, true},  // warm arena pool
					{true, true},   // warm arena pool, fast off
				} {
					spec := base
					spec.NoFastPath = v.noFast
					if v.pooled {
						spec.Arena = pool
					}
					name := fmt.Sprintf("noFast=%v pooled=%v", v.noFast, v.pooled)
					res, err := steinerforest.Solve(ins, spec)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if a, b := ref.Stats, res.Stats; a.Rounds != b.Rounds ||
						a.Messages != b.Messages || a.Bits != b.Bits ||
						a.MaxMessageBits != b.MaxMessageBits ||
						a.DroppedToTerminated != b.DroppedToTerminated {
						t.Errorf("%s: stats diverged: %+v vs %+v", name, a, b)
					}
					if res.Weight != ref.Weight {
						t.Errorf("%s: weight %d != %d", name, res.Weight, ref.Weight)
					}
					re, ge := ref.Solution.Edges(), res.Solution.Edges()
					if len(re) != len(ge) {
						t.Fatalf("%s: forest size %d != %d", name, len(ge), len(re))
					}
					for i := range re {
						if re[i] != ge[i] {
							t.Fatalf("%s: forest differs at %d: edge %d != %d", name, i, ge[i], re[i])
						}
					}
				}
			})
		}
		if ps := pool.Stats(); ps.WarmGets == 0 {
			t.Errorf("%s: arena pool never reused a warm arena across the pooled variants (stats %+v)", fam, ps)
		}
	}
}
