package congest

import (
	"math"
	"math/rand"
	"testing"

	"steinerforest/internal/graph"
)

// lazySeeds are the seeds the lazy source is pinned on: the normalization
// edges of math/rand's Seed (0 and the multiples of 2³¹−1 all map to
// 89482311), both signs, and the int64 extremes.
var lazySeeds = []int64{
	0, 1, -1, 2, 7, 1<<31 - 2, 1<<31 - 1, -(1<<31 - 1), 2 * (1<<31 - 1), 3*(1<<31-1) + 5,
	-5 * (1<<31 - 1), 89482311, 1 << 40, math.MinInt64, math.MaxInt64, math.MinInt64 + 1,
	0x9E3779B9, 1 + 1023*0x9E3779B9,
}

// TestLazySourceMatchesMathRand draws the same sequence of calls from the
// lazy source and from math/rand for every seed, with call counts on both
// sides of the prefix the lazy source computes directly, so each method
// is checked before, at and after the switch to the real source.
func TestLazySourceMatchesMathRand(t *testing.T) {
	type draw struct {
		name string
		f    func(r *rand.Rand) any
	}
	draws := []draw{
		{"Int63", func(r *rand.Rand) any { return r.Int63() }},
		{"Int63n(1024)", func(r *rand.Rand) any { return r.Int63n(1024) }},
		{"Int63n(1000)", func(r *rand.Rand) any { return r.Int63n(1000) }},
		{"Int63n(3<<61)", func(r *rand.Rand) any { return r.Int63n(3 << 61) }},
		{"Intn(7)", func(r *rand.Rand) any { return r.Intn(7) }},
		{"Intn(64)", func(r *rand.Rand) any { return r.Intn(64) }},
		{"Float64", func(r *rand.Rand) any { return r.Float64() }},
		{"Uint64", func(r *rand.Rand) any { return r.Uint64() }},
	}
	for _, seed := range lazySeeds {
		for _, d := range draws {
			for count := 1; count <= lazyDraws+3; count++ {
				var src lazySource
				src.Seed(seed)
				got, want := rand.New(&src), rand.New(rand.NewSource(seed))
				for i := 0; i < count; i++ {
					if g, w := d.f(got), d.f(want); g != w {
						t.Fatalf("seed %d, %s draw %d of %d: %v, math/rand %v", seed, d.name, i, count, g, w)
					}
				}
			}
		}
		// A mixed sequence: each call consumes what math/rand's does.
		var src lazySource
		src.Seed(seed)
		got, want := rand.New(&src), rand.New(rand.NewSource(seed))
		for i := 0; i < 40; i++ {
			d := draws[i%len(draws)]
			if g, w := d.f(got), d.f(want); g != w {
				t.Fatalf("seed %d, mixed call %d (%s): %v, math/rand %v", seed, i, d.name, g, w)
			}
		}
	}
}

// TestLazySourceReseed pins Seed as a full reset, also after the switch
// to the real source.
func TestLazySourceReseed(t *testing.T) {
	var src lazySource
	src.Seed(3)
	for i := 0; i < lazyDraws+2; i++ {
		src.Int63()
	}
	src.Seed(11)
	want := rand.NewSource(11)
	for i := 0; i < lazyDraws+2; i++ {
		if g, w := src.Int63(), want.Int63(); g != w {
			t.Fatalf("draw %d after reseed: %d, math/rand %d", i, g, w)
		}
	}
}

// TestLazySourceAllocations pins the source's cost: the prefix draws
// allocate nothing, and in a warm run a node that draws pays exactly two
// small allocations (its source and its *rand.Rand) while a node that
// never calls Rand pays none.
func TestLazySourceAllocations(t *testing.T) {
	var src lazySource
	if a := testing.AllocsPerRun(100, func() {
		src.Seed(42)
		for i := 0; i < lazyDraws; i++ {
			src.Int63()
		}
	}); a != 0 {
		t.Errorf("prefix draws: %v allocations, want 0", a)
	}

	g := graph.Grid(4, 4, graph.UnitWeights)
	pool := NewArenaPool()
	run := func(draw bool) float64 {
		return testing.AllocsPerRun(20, func() {
			_, err := RunDriven(g, func(h *Host) (Request, Driver) {
				if draw {
					h.Rand().Int63()
				}
				return Idle(0), doneDriver{}
			}, WithArenaPool(pool))
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	quiet, drawing := run(false), run(true)
	if d := drawing - quiet; d != float64(2*g.N()) {
		t.Errorf("drawing run: %v allocations, silent run %v; want %d more (two per node)", drawing, quiet, 2*g.N())
	}
}

type doneDriver struct{}

func (doneDriver) Next([]Recv) (Request, bool) { return Request{}, false }
