package randforest

import (
	"math/rand"
	"reflect"
	"testing"

	"steinerforest/internal/congest"
	"steinerforest/internal/graph"
	"steinerforest/internal/steiner"
)

// FuzzRandDriven decodes its input into a connected graph with n <= 16
// and up to 3 demand groups, and requires each mode — one congest.RunDriven
// driver — to give identical Stats, levels and forest with the fast path
// on (no coroutine at all) and off (Run over Drive, one Exchange loop per
// request).
//
// Input layout: n-1, graph seed, density, max weight, run seed, then one
// byte per node whose value mod 4 is its group (0 = no demand), cycling
// when the input is short.
func FuzzRandDriven(f *testing.F) {
	f.Add([]byte{9, 1, 2, 10, 1, 1, 2, 0, 1, 2, 3, 3})
	f.Add([]byte{15, 7, 0, 1, 4, 0, 1, 1, 2, 2, 3, 3, 0, 0})
	f.Add([]byte{5, 3, 9, 200, 9, 1, 0, 0, 0, 0, 1})
	f.Add([]byte{0, 0, 0, 0, 0, 1}) // n = 1
	f.Add([]byte{1, 4, 1, 3, 2, 1, 1})
	f.Add([]byte{13, 2, 1, 60, 3, 1, 0, 2, 0, 3, 0, 1, 2})
	f.Add(contentionFuzzSeed)
	f.Fuzz(func(t *testing.T, data []byte) {
		ins, seed, ok := fuzzInstance(data)
		if !ok {
			return
		}
		for _, mode := range []Mode{ModeFull, ModeTruncated, ModeKhanBaseline} {
			solve := func(opts ...congest.Option) *Result {
				res, err := Solve(ins, mode, append(opts, congest.WithSeed(seed))...)
				if err != nil {
					t.Fatalf("mode %d: %v", mode, err)
				}
				return res
			}
			want, got := solve(congest.WithFastPath(false)), solve()
			if !reflect.DeepEqual(got.Stats, want.Stats) {
				t.Fatalf("mode %d: stats %+v, reference %+v", mode, *got.Stats, *want.Stats)
			}
			if got.Levels != want.Levels {
				t.Fatalf("mode %d: %d levels, reference %d", mode, got.Levels, want.Levels)
			}
			if e, we := got.Solution.Edges(), want.Solution.Edges(); !reflect.DeepEqual(e, we) {
				t.Fatalf("mode %d: forest %v, reference %v", mode, e, we)
			}
		}
	})
}

// fuzzInstance decodes FuzzRandDriven's input into an instance and a run
// seed; ok is false when the input is too short.
func fuzzInstance(data []byte) (ins *steiner.Instance, seed int64, ok bool) {
	if len(data) < 6 {
		return nil, 0, false
	}
	n := 1 + int(data[0])%16
	rng := rand.New(rand.NewSource(int64(data[1])))
	g := graph.GNP(n, float64(data[2]%8)/10, graph.RandomWeights(rng, 1+int64(data[3])), rng)
	groups := data[5:]
	ins = steiner.NewInstance(g)
	for v := 0; v < n; v++ {
		if c := int(groups[v%len(groups)] % 4); c > 0 {
			ins.SetComponent(c-1, v)
		}
	}
	return ins, int64(data[4]), true
}
