package moat

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"steinerforest/internal/graph"
	"steinerforest/internal/rational"
	"steinerforest/internal/steiner"
	"steinerforest/internal/workload"
)

// scanEvent is the reference event search: it rescans every terminal pair
// and recomputes its candidate from the current radii, taking the least
// candidate (clamped to 0) with ties broken by the first pair (i, j) in
// scan order.
func scanEvent(st *moatState) (mu rational.Q, v, w int, found bool) {
	moatOf := make([]int, len(st.terminals))
	active := make([]bool, len(st.terminals))
	for i := range st.terminals {
		moatOf[i], active[i] = st.book.MoatOf(i), st.book.Active(i)
	}
	for i := range st.terminals {
		for j := i + 1; j < len(st.terminals); j++ {
			if moatOf[i] == moatOf[j] || st.wd[i][j] == graph.Infinity {
				continue
			}
			ai, aj := active[i], active[j]
			if !ai && !aj {
				continue
			}
			gap := rational.FromInt(st.wd[i][j]).Sub(st.rad[i]).Sub(st.rad[j])
			cand := gap
			if ai && aj {
				cand = gap.Half()
			}
			if cand.Sign() < 0 {
				cand = rational.Q{}
			}
			if !found || cand.Less(mu) {
				found = true
				mu, v, w = cand, i, j
			}
		}
	}
	return mu, v, w, found
}

// TestNextEventMatchesScan pins the incremental event search against the
// full pair scan for Algorithms 1 and 2: every merge (its pair, growth,
// active count and phase), the dual, the phase counts, the final radii
// and the pruned forest must be identical. Unit weights force many equal
// meeting points, so the (i, j) tie-break is exercised; the planted
// instance is the shape of serve-zipf's resident one.
func TestNextEventMatchesScan(t *testing.T) {
	var cases []*steiner.Instance
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 24; trial++ {
		n := 8 + rng.Intn(40)
		maxW := int64(1 + 40*(trial%3))
		cases = append(cases, randomInstance(rng, n, 1+rng.Intn(5), maxW))
	}
	unit := steiner.NewInstance(graph.Grid(6, 6, graph.UnitWeights))
	for v := 0; v < 36; v += 3 {
		unit.SetComponent(v%4, v)
	}
	cases = append(cases, unit)
	for _, fam := range []string{"planted", "roadmesh", "geometric", "gnp"} {
		gen, err := workload.Generate(fam, workload.Params{N: 200, K: 3, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, gen.Instance)
	}
	gen, err := workload.Generate("planted", workload.Params{N: 400, K: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, gen.Instance)

	for ci, ins := range cases {
		for _, eps := range [][2]int64{{0, 0}, {1, 2}, {1, 1}, {1, 8}} {
			run := func(next func(*moatState) (rational.Q, int, int, bool)) *Result {
				var th *thresholds
				if eps[1] != 0 {
					th = &thresholds{num: eps[0], den: eps[1], current: 1}
				}
				res, err := solve(context.Background(), ins, th, next)
				if err != nil {
					t.Fatalf("case %d eps %v: %v", ci, eps, err)
				}
				return res
			}
			got, want := run((*moatState).nextEvent), run(scanEvent)
			if !reflect.DeepEqual(got.Merges, want.Merges) {
				t.Fatalf("case %d eps %v: merges differ\n got %v\nwant %v", ci, eps, got.Merges, want.Merges)
			}
			if got.DualSum != want.DualSum || got.Phases != want.Phases || got.GrowthPhases != want.GrowthPhases || got.Weight != want.Weight {
				t.Fatalf("case %d eps %v: dual %v phases %d/%d weight %d; scan %v, %d/%d, %d", ci, eps,
					got.DualSum, got.Phases, got.GrowthPhases, got.Weight, want.DualSum, want.Phases, want.GrowthPhases, want.Weight)
			}
			if !reflect.DeepEqual(got.FinalRadii, want.FinalRadii) {
				t.Fatalf("case %d eps %v: final radii differ", ci, eps)
			}
			if !reflect.DeepEqual(got.Pruned.Edges(), want.Pruned.Edges()) || !reflect.DeepEqual(got.Raw.Edges(), want.Raw.Edges()) {
				t.Fatalf("case %d eps %v: forests differ", ci, eps)
			}
		}
	}
}

// BenchmarkSolveAKRPlanted times the oracle on a planted instance of
// serve-zipf's shape (n=400, k=3), where the event search dominates.
func BenchmarkSolveAKRPlanted(b *testing.B) {
	gen, err := workload.Generate("planted", workload.Params{N: 400, K: 3, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(len(gen.Instance.Terminals())), "terminals")
	for i := 0; i < b.N; i++ {
		if _, err := SolveAKR(gen.Instance); err != nil {
			b.Fatal(err)
		}
	}
}
