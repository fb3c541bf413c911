package congest

import (
	"math/rand"
	"reflect"
	"testing"

	"steinerforest/internal/graph"
)

// laneDriver issues a seeded random script that mixes next-round parks
// (SleepUntil(Round()+1), Idle(1): the wake lane), later deadlines
// (SleepUntil and Idle further out: the wake heap) and exchanges whose
// mail wakes sleeping neighbours, logging every Next call.
type laneDriver struct {
	h     *Host
	rng   *rand.Rand
	left  int
	calls *[]driveCall
}

func (d *laneDriver) Next(in []Recv) (Request, bool) {
	*d.calls = append(*d.calls, driveCall{round: d.h.Round(), in: digest(in)})
	if d.left == 0 {
		return Request{}, false
	}
	d.left--
	switch d.rng.Intn(6) {
	case 0:
		var out []Send
		for p := 0; p < d.h.Degree(); p++ {
			if d.rng.Intn(3) == 0 {
				out = append(out, Send{Port: p, Wire: msg(int64(d.h.ID()*100 + d.left))})
			}
		}
		return Exchange(out), true
	case 1, 2:
		return SleepUntil(d.h.Round() + 1), true
	case 3:
		return SleepUntil(d.h.Round() + 2 + d.rng.Intn(5)), true
	case 4:
		return Idle(1), true
	}
	return Idle(2 + d.rng.Intn(4)), true
}

// TestWakeLaneMatchesReference: a RunDriven program mixing next-round
// parks, far deadlines, Idle and mail-woken sleeps gives the same Stats
// and the same Next log (round and inbox of every call) on the fast path,
// where next-round parks wake from the lane, as with the fast paths off,
// for fresh and for warm arenas; and the lane is exercised.
func TestWakeLaneMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		g := graph.GNP(40, 0.1, graph.UnitWeights, newRand(seed))
		observe := func(opts ...Option) ([][]driveCall, *Stats) {
			calls := make([][]driveCall, g.N())
			stats, err := RunDriven(g, func(h *Host) (Request, Driver) {
				d := &laneDriver{h: h, rng: rand.New(rand.NewSource(seed*1000 + int64(h.ID()))), left: 20 + h.ID()%9, calls: &calls[h.ID()]}
				return SleepUntil(1), d
			}, opts...)
			if err != nil {
				t.Fatal(err)
			}
			return calls, stats
		}
		refCalls, refStats := observe(WithFastPath(false))
		pool := NewArenaPool()
		for _, run := range []string{"fresh", "cold pool", "warm pool"} {
			var opts []Option
			if run != "fresh" {
				opts = append(opts, WithArenaPool(pool))
			}
			calls, stats := observe(opts...)
			if !reflect.DeepEqual(stats, refStats) {
				t.Errorf("seed %d %s: Stats %+v, want %+v", seed, run, stats, refStats)
			}
			if !reflect.DeepEqual(calls, refCalls) {
				t.Errorf("seed %d %s: Next log differs from the reference", seed, run)
			}
		}
		if ar := pool.free[0]; cap(ar.lane) == 0 {
			t.Errorf("seed %d: no park went through the wake lane", seed)
		}
	}
}

// TestWakeLaneSkipsMailWokenNode: a node parked until the next round whose
// mail arrives in that very round is woken once, by the mail; its lane
// entry is stale by then and is skipped rather than resuming it twice
// (which would show as a second Next call in round 1).
func TestWakeLaneSkipsMailWokenNode(t *testing.T) {
	for _, fast := range []bool{true, false} {
		calls := make([][]driveCall, 2)
		_, err := RunDriven(graph.Path(2, graph.UnitWeights), func(h *Host) (Request, Driver) {
			d := &twoShot{h: h, calls: &calls[h.ID()]}
			if h.ID() == 0 {
				return SleepUntil(1), d // parked for round 1, the lane's round
			}
			return Exchange([]Send{{Port: 0, Wire: msg(7)}}), d // mail for node 0 in round 1
		}, WithFastPath(fast))
		if err != nil {
			t.Fatal(err)
		}
		want := []driveCall{{round: 1, in: 1*1000003 + 7}, {round: 3}}
		if !reflect.DeepEqual(calls[0], want) {
			t.Errorf("fast=%v: node 0's Next calls %+v, want exactly %+v", fast, calls[0], want)
		}
	}
}

// twoShot logs its Next calls: the first parks the node for two rounds,
// the second finishes it.
type twoShot struct {
	h     *Host
	calls *[]driveCall
}

func (d *twoShot) Next(in []Recv) (Request, bool) {
	*d.calls = append(*d.calls, driveCall{round: d.h.Round(), in: digest(in)})
	if len(*d.calls) == 1 {
		return SleepUntil(d.h.Round() + 2), true
	}
	return Request{}, false
}
