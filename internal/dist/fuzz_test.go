package dist

import (
	"math/rand"
	"testing"

	"steinerforest/internal/congest"
	"steinerforest/internal/graph"
)

// byteSched reads a fuzz input as a cycling stream of draws.
type byteSched struct {
	b []byte
	i int
}

func (s *byteSched) Intn(n int) int {
	if len(s.b) == 0 {
		return 0
	}
	x := int(s.b[s.i%len(s.b)])
	s.i++
	return x % n
}

// FuzzRunQuiet decodes its input into a small network — a random tree or
// a GNP graph, n <= 24 — and a bursty per-node activity schedule, and
// requires the scheduler-driven RunQuiet to match the per-round engine
// (WithFastPath(false)) exactly: Stats, every node's exit round, and every
// node's step calls.
func FuzzRunQuiet(f *testing.F) {
	f.Add([]byte{0, 10, 1, 0, 3, 7, 1})
	f.Add([]byte{1, 22, 5, 4, 0, 0, 9, 2, 6})
	f.Add([]byte{2, 16, 3})
	f.Add([]byte{3, 0, 0, 12, 200, 31})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := 2 + int(data[1])%23
		rng := rand.New(rand.NewSource(int64(data[2])))
		g := graph.RandomTree(n, graph.UnitWeights, rng)
		if data[0]%2 == 1 {
			g = graph.GNP(n, 0.15, graph.UnitWeights, rng)
		}
		lone := data[0]%4 >= 2
		sched := data[3:]
		mk := func(h *congest.Host, calls *[]stepCall) Step {
			return burstyStepFrom(h, &byteSched{b: sched, i: 7 * h.ID()}, lone, calls)
		}
		want := observeSteps(t, g, mk, RunQuiet, congest.WithFastPath(false))
		sameRun(t, "driven", observeSteps(t, g, mk, RunQuiet), want)
	})
}
