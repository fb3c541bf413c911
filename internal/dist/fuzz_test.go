package dist

import (
	"math/rand"
	"reflect"
	"slices"
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
// requires StartQuiet on the fast path and under the per-round reference
// (WithFastPath(false)) to match its defining loop (quietRef) exactly:
// Stats, every node's exit round, and every node's step calls. Bits 2-3
// of the first byte select a root list for StartQuietList — none, or L =
// 0, 1 or 2-5 items — whose run must also extend the list-free run by
// exactly the list (checkExitList).
func FuzzRunQuiet(f *testing.F) {
	f.Add([]byte{0, 10, 1, 0, 3, 7, 1})
	f.Add([]byte{1, 22, 5, 4, 0, 0, 9, 2, 6})
	f.Add([]byte{2, 16, 3})
	f.Add([]byte{3, 0, 0, 12, 200, 31})
	// A transition rides on a payload to the parent: a random tree, and a
	// GNP graph.
	f.Add([]byte{0, 15, 5, 0, 3, 7, 1, 2, 5})
	f.Add([]byte{1, 9, 4, 0, 3, 7, 1, 2, 5})
	// Root lists of 0 items (a tree), 1 item (GNP), 3 items (a tree) and
	// 2 items (the lone root burst on GNP).
	f.Add([]byte{4, 10, 1, 0, 3, 7, 1})
	f.Add([]byte{9, 22, 5, 4, 0, 0, 9, 2, 6})
	f.Add([]byte{12, 15, 5, 0, 3, 7, 1, 2, 5})
	f.Add([]byte{15, 0, 0, 12, 200, 31})
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
		want := observeSteps(t, g, mk, startQuietRef)
		sameRun(t, "nofast", observeSteps(t, g, mk, StartQuiet, congest.WithFastPath(false)), want)
		sameRun(t, "driven", observeSteps(t, g, mk, StartQuiet), want)
		if sel := (data[0] >> 2) % 4; sel > 0 {
			list := exitList(min(int(sel)-1, 1))
			if sel == 3 {
				list = exitList(2 + int(data[2])%4)
			}
			ref := observeSteps(t, g, mk, withList(startQuietListRef, list))
			checkExitList(t, "list/nofast", observeSteps(t, g, mk, withList(StartQuietList, list), congest.WithFastPath(false)), ref, want, list)
			checkExitList(t, "list/driven", observeSteps(t, g, mk, withList(StartQuietList, list)), ref, want, list)
		}
	})
}

// FuzzBuildBFS decodes its input into a small network — a random tree or
// a GNP graph, n <= 24 — an entry round common to every node and, from
// its fifth byte on, random per-node items, and requires the build on the
// fast path to match the per-round reference (WithFastPath(false))
// exactly: Stats, every node's exit round, its Tree and its stream.
// Without item bytes the build is StartBFS, whose Stats on the seeds are
// pinned (bfsPins); with them it is StartBFSCollect, whose stream must be
// the sorted union of the items on every node. Either must exit within
// 3·height + S + 2 rounds of entry, S the item count: the collect rides
// the build's completion and finish waves, so a collect serialized after
// the build (about 2·height more) fails the bound.
func FuzzBuildBFS(f *testing.F) {
	f.Add([]byte{0, 10, 1, 0})
	f.Add([]byte{1, 22, 5, 3})
	f.Add([]byte{0, 0, 7, 0}) // n = 2
	f.Add([]byte{1, 16, 200, 9})
	f.Add([]byte{0, 20, 3, 2, 3, 7, 1, 200, 40}) // tree, items
	f.Add([]byte{1, 23, 9, 0, 4, 0, 0, 9, 2, 6}) // GNP, items
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		n := 2 + int(data[1])%23
		rng := rand.New(rand.NewSource(int64(data[2])))
		g := graph.RandomTree(n, graph.UnitWeights, rng)
		if data[0]%2 == 1 {
			g = graph.GNP(n, 0.15, graph.UnitWeights, rng)
		}
		enter := int(data[3]) % 8
		sched := data[4:]
		locals := make([][]congest.Wire, n)
		var union []congest.Wire
		if len(sched) > 0 {
			for v := range locals {
				s := &byteSched{b: sched, i: 7 * v}
				for range s.Intn(4) {
					locals[v] = append(locals[v], intItem(s.Intn(256)))
				}
				union = append(union, locals[v]...)
			}
			slices.SortFunc(union, intItemCmp)
		}
		type run struct {
			stats   *congest.Stats
			exit    []int
			trees   []Tree
			streams [][]congest.Wire
		}
		observe := func(opts ...congest.Option) run {
			r := run{exit: make([]int, n), trees: make([]Tree, n), streams: make([][]congest.Wire, n)}
			stats, err := congest.RunDriven(g, func(h *congest.Host) (congest.Request, congest.Driver) {
				tr := new(Tree)
				return congest.Chain(
					func() (congest.Request, congest.Driver) { return congest.Idle(enter), finished{} },
					func() (congest.Request, congest.Driver) {
						if len(sched) == 0 {
							return StartBFS(h, tr)
						}
						return StartBFSCollect(h, tr, slices.Clone(locals[h.ID()]), intItemCmp, nil)
					},
					func() (congest.Request, congest.Driver) {
						v := h.ID()
						r.exit[v] = h.Round()
						r.trees[v] = Tree{Root: tr.Root, Depth: tr.Depth, Height: tr.Height, ParentPort: tr.ParentPort, ChildPorts: tr.ChildPorts}
						r.streams[v] = slices.Clone(tr.Collected())
						return congest.Request{}, nil
					})
			}, opts...)
			if err != nil {
				t.Fatal(err)
			}
			r.stats = stats
			return r
		}
		want, got := observe(congest.WithFastPath(false)), observe()
		if !reflect.DeepEqual(got.stats, want.stats) {
			t.Fatalf("stats %+v, reference %+v", *got.stats, *want.stats)
		}
		if pin, ok := bfsPins[string(data)]; ok && (got.stats.Rounds != pin[0] || got.stats.Messages != int64(pin[1]) || got.stats.Bits != int64(pin[2])) {
			t.Fatalf("rounds/messages/bits %d/%d/%d, pinned %v", got.stats.Rounds, got.stats.Messages, got.stats.Bits, pin)
		}
		height := got.trees[0].Height
		for v := range want.exit {
			if got.exit[v] != want.exit[v] {
				t.Fatalf("node %d exited at round %d, reference %d", v, got.exit[v], want.exit[v])
			}
			if !reflect.DeepEqual(got.trees[v], want.trees[v]) {
				t.Fatalf("node %d tree %+v, reference %+v", v, got.trees[v], want.trees[v])
			}
			if !slices.Equal(got.streams[v], union) {
				t.Fatalf("node %d stream %v, want the sorted union %v", v, got.streams[v], union)
			}
			if bound := enter + 3*height + len(union) + 2; got.exit[v] > bound {
				t.Fatalf("node %d exited at round %d, past 3·height + S + 2 = %d from entry %d", v, got.exit[v], bound, enter)
			}
		}
	})
}

// bfsPins are StartBFS's Stats (rounds, messages, bits) on FuzzBuildBFS's
// item-free seeds, recorded when the build was a driver of its own, before
// it became StartBFSCollect's zero-item case.
var bfsPins = map[string][3]int{
	string([]byte{0, 10, 1, 0}):   {17, 44, 616},
	string([]byte{1, 22, 5, 3}):   {14, 166, 1436},
	string([]byte{0, 0, 7, 0}):    {5, 4, 56},
	string([]byte{1, 16, 200, 9}): {12, 110, 1036},
}

// FuzzCollect decodes its input into a small network — a random tree or a
// GNP graph, n <= 24 — and random per-node items, and runs one collect
// pipeline on it: StartUpcastBroadcast without a filter, with a
// count-cap filter, or with the filter plus a stopAfter cut,
// StartBroadcastList of the root's items, or StartMax of each node's
// largest item. The fast-path run must match the per-round reference
// (WithFastPath(false)) exactly: Stats, every node's exit round, and
// every node's received items. An unfiltered collect must also exit
// within 2·height + S + 1 rounds of its start, S the item count: the
// root sends each item down as it decides it, so a downcast that waits
// for the whole upcast (about S more) fails the bound.
func FuzzCollect(f *testing.F) {
	f.Add([]byte{0, 10, 1, 3, 7, 1, 200, 40})     // tree, no filter
	f.Add([]byte{3, 22, 5, 4, 0, 0, 9, 2, 6})     // GNP, filter
	f.Add([]byte{4, 16, 90, 2, 2, 2, 150, 60, 3}) // tree, filter + stop
	f.Add([]byte{5, 23, 120, 12, 200, 31, 7})     // GNP, filter + stop
	f.Add([]byte{7, 23, 9, 3, 255, 255, 0, 0, 3}) // GNP, broadcast
	f.Add([]byte{8, 20, 33, 1, 90, 4, 250, 17})   // tree, max
	f.Add([]byte{9, 23, 61, 0, 0, 5, 3, 200, 2})  // GNP, max
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
		mode := (data[0] >> 1) % 5
		stopAt := int64(data[2])
		sched := data[3:]
		start, items := make([]int, n), 0
		program := func(h *congest.Host, tr *Tree) (congest.Request, congest.Driver, func() []congest.Wire) {
			s := &byteSched{b: sched, i: 7 * h.ID()}
			local := make([]congest.Wire, s.Intn(4))
			for i := range local {
				local[i] = intItem(s.Intn(256))
			}
			start[h.ID()] = h.Round()
			items += len(local)
			switch mode {
			case 3:
				if !tr.IsRoot() {
					local = nil
				}
				req, d := StartBroadcastList(h, tr, local)
				return req, d, tr.Broadcasted
			case 4:
				v := int64(-1)
				for _, it := range local {
					v = max(v, it.C)
				}
				req, d := StartMax(h, tr, v)
				return req, d, func() []congest.Wire { return []congest.Wire{intItem(int(tr.Maximum()))} }
			}
			var newFilter func() Filter
			var stop func(congest.Wire) bool
			if mode >= 1 {
				// At most two items per residue class mod 5: a count cap,
				// hence monotone.
				newFilter = func() Filter {
					var seen [5]int
					return func(x congest.Wire) bool {
						seen[x.C%5]++
						return seen[x.C%5] <= 2
					}
				}
			}
			if mode == 2 {
				stop = func(x congest.Wire) bool { return x.C >= stopAt }
			}
			req, d := StartUpcastBroadcast(h, tr, local, intItemCmp, newFilter, stop)
			return req, d, tr.Collected
		}
		want := observeCollect(t, g, program, congest.WithFastPath(false))
		items = 0
		got := observeCollect(t, g, program)
		if !reflect.DeepEqual(got.stats, want.stats) {
			t.Fatalf("stats %+v, reference %+v", *got.stats, *want.stats)
		}
		for v := range want.exit {
			if got.exit[v] != want.exit[v] {
				t.Fatalf("node %d exited at round %d, reference %d", v, got.exit[v], want.exit[v])
			}
			if !slices.Equal(got.items[v], want.items[v]) {
				t.Fatalf("node %d received items diverged:\n got %v\nwant %v", v, got.items[v], want.items[v])
			}
			if bound := start[v] + 2*got.height + items + 1; mode == 0 && got.exit[v] > bound {
				t.Fatalf("node %d exited at round %d, past 2·height + S + 1 = %d from its start %d", v, got.exit[v], bound, start[v])
			}
		}
	})
}

type collectRun struct {
	stats  *congest.Stats
	exit   []int
	items  [][]congest.Wire
	height int
}

// observeCollect runs program after a BFS tree build on every node of g
// and records Stats, each node's exit round and the items its result
// function reads once the program's driver is done.
func observeCollect(t *testing.T, g *graph.Graph, program func(*congest.Host, *Tree) (congest.Request, congest.Driver, func() []congest.Wire), opts ...congest.Option) collectRun {
	t.Helper()
	r := collectRun{exit: make([]int, g.N()), items: make([][]congest.Wire, g.N())}
	result := make([]func() []congest.Wire, g.N())
	stats, err := congest.RunDriven(g, onTree(func(h *congest.Host, tr *Tree) (congest.Request, congest.Driver) {
		req, d, res := program(h, tr)
		result[h.ID()] = res
		return req, d
	}, then(func(h *congest.Host, tr *Tree) {
		r.exit[h.ID()], r.items[h.ID()] = h.Round(), slices.Clone(result[h.ID()]())
		r.height = tr.Height
	})), opts...)
	if err != nil {
		t.Fatal(err)
	}
	r.stats = stats
	return r
}
