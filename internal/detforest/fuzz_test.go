package detforest

import (
	"math/rand"
	"reflect"
	"testing"

	"steinerforest/internal/congest"
	"steinerforest/internal/graph"
	"steinerforest/internal/steiner"
)

// FuzzDetDriven decodes its input into a connected graph with n <= 16
// and up to 3 demand groups, and requires det and rounded — each one
// congest.RunDriven driver — to give identical Stats, phases, merges and
// forest with the fast path on (no coroutine at all) and off (Run over
// Drive, one Exchange loop per request).
//
// Input layout: n-1, graph seed, density, max weight, ε numerator and
// denominator, then one byte per node whose value mod 4 is its group
// (0 = no demand), cycling when the input is short.
func FuzzDetDriven(f *testing.F) {
	f.Add([]byte{9, 1, 2, 10, 1, 2, 1, 2, 0, 1, 2, 3, 3})
	f.Add([]byte{15, 7, 0, 1, 0, 0, 1, 1, 2, 2, 3, 3, 0, 0})
	f.Add([]byte{5, 3, 9, 200, 2, 1, 1, 0, 0, 0, 0, 1})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1}) // n = 1
	f.Add([]byte{1, 4, 1, 3, 1, 1, 1, 1})
	// Heavy weights, 3 groups, ε = 1/2: a threshold check deactivates a
	// moat, and a rounded phase's stream runs past 9 threshold checks
	// that change no moat's activity.
	f.Add([]byte{15, 3, 2, 255, 0, 1, 1, 0, 2, 0, 3, 0, 0})
	// The same groups at ε = 1: the first rounded phase streams all 6
	// merges past 11 checks that change nothing; the second, with an
	// empty stream, ends at the check that deactivates the last moat.
	f.Add([]byte{15, 1, 2, 255, 0, 0, 1, 0, 2, 0, 3, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 7 {
			return
		}
		n := 1 + int(data[0])%16
		rng := rand.New(rand.NewSource(int64(data[1])))
		g := graph.GNP(n, float64(data[2]%8)/10, graph.RandomWeights(rng, 1+int64(data[3])), rng)
		epsNum, epsDen := 1+int64(data[4]%3), 1+int64(data[5]%4)
		groups := data[6:]
		ins := steiner.NewInstance(g)
		for v := 0; v < n; v++ {
			if c := int(groups[v%len(groups)] % 4); c > 0 {
				ins.SetComponent(c-1, v)
			}
		}
		for _, rounded := range []bool{false, true} {
			solve := func(opts ...congest.Option) *Result {
				var res *Result
				var err error
				if rounded {
					res, err = SolveRounded(ins, epsNum, epsDen, opts...)
				} else {
					res, err = Solve(ins, opts...)
				}
				if err != nil {
					t.Fatalf("rounded=%v: %v", rounded, err)
				}
				return res
			}
			want, got := solve(congest.WithFastPath(false)), solve()
			if !reflect.DeepEqual(got.Stats, want.Stats) {
				t.Fatalf("rounded=%v: stats %+v, reference %+v", rounded, *got.Stats, *want.Stats)
			}
			if got.Phases != want.Phases || got.Merges != want.Merges {
				t.Fatalf("rounded=%v: %d phases, %d merges; reference %d, %d", rounded, got.Phases, got.Merges, want.Phases, want.Merges)
			}
			if e, we := got.Solution.Edges(), want.Solution.Edges(); !reflect.DeepEqual(e, we) {
				t.Fatalf("rounded=%v: forest %v, reference %v", rounded, e, we)
			}
		}
	})
}
