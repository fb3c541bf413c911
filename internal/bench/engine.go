package bench

import (
	"fmt"
	"runtime"
	"time"

	steinerforest "steinerforest"
	"steinerforest/internal/congest"
	"steinerforest/internal/graph"
	"steinerforest/internal/workload"
)

// E2 measures the event-driven scheduler end to end: every distributed
// solver runs the same instances with the idle/sleep fast paths on and
// off, timing ns per simulated round, plus an engine-level idle workload
// whose steady state must allocate nothing. "identical" asserts that the
// two schedulers return bit-identical Stats — the fast paths may only
// change how fast rounds pass, never what happens in them.
func E2(sc Scale) *Table {
	tab := &Table{
		ID:    "E2",
		Title: "event-driven scheduler: ns/round and allocs/round, fast paths on vs off",
		Claim: "engineering: parked nodes cost no scheduler work; wire messages and reused buffers keep steady-state rounds allocation-free",
		Header: []string{"workload", "n", "rounds", "ms(fast)", "ms(off)",
			"ns/rnd(fast)", "ns/rnd(off)", "speedup", "allocs/node-rnd", "allocs/run", "identical"},
	}
	shrink := func(n int) int {
		n /= int(sc)
		if n < 24 {
			n = 24
		}
		return n
	}
	addRow := func(name string, n int, run func(noFast bool) (*congest.Stats, error)) {
		timed := func(noFast bool) (*congest.Stats, float64, float64, error) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			stats, err := run(noFast)
			ms := float64(time.Since(start).Microseconds()) / 1000.0
			runtime.ReadMemStats(&after)
			return stats, ms, float64(after.Mallocs - before.Mallocs), err
		}
		fast, msFast, allocs, err := timed(false)
		if err != nil {
			tab.Notes = append(tab.Notes, name+": "+err.Error())
			return
		}
		slow, msSlow, _, err := timed(true)
		if err != nil {
			tab.Notes = append(tab.Notes, name+": "+err.Error())
			return
		}
		same := fast.Rounds == slow.Rounds && fast.Messages == slow.Messages &&
			fast.Bits == slow.Bits && fast.MaxMessageBits == slow.MaxMessageBits &&
			fast.DroppedToTerminated == slow.DroppedToTerminated
		if !same {
			tab.Failed = true
		}
		perRound := func(ms float64) string {
			return fmt.Sprintf("%.0f", ms*1e6/float64(fast.Rounds))
		}
		tab.Rows = append(tab.Rows, []string{
			name, d(n), d(fast.Rounds), f(msFast), f(msSlow),
			perRound(msFast), perRound(msSlow), f(msSlow / msFast),
			fmt.Sprintf("%.3f", allocs/float64(fast.Rounds)/float64(n)),
			fmt.Sprintf("%.0f", allocs),
			fmt.Sprintf("%v", same),
		})
	}

	// Engine-level idle workload: long parked stretches punctuated by one
	// wire flood, the shape of an upcast pipeline's silent majority.
	idleN := shrink(3600)
	side := 1
	for side*side < idleN {
		side++
	}
	g := graph.Grid(side, side, graph.UnitWeights)
	addRow("idle+wireflood", g.N(), func(noFast bool) (*congest.Stats, error) {
		return congest.RunDriven(g, startFlood(12), congest.WithFastPath(!noFast))
	})

	solverRow := func(algo string, n, k int) {
		n = shrink(n)
		gen, err := workload.Generate("planted", workload.Params{N: n, K: k, Seed: 9})
		if err != nil {
			tab.Notes = append(tab.Notes, algo+": "+err.Error())
			return
		}
		addRow(algo, n, func(noFast bool) (*congest.Stats, error) {
			res, err := steinerforest.Solve(gen.Instance, steinerforest.Spec{
				Algorithm: algo, Seed: 5, NoCertificate: true, NoFastPath: noFast,
			})
			if err != nil {
				return nil, err
			}
			return res.Stats, nil
		})
	}
	solverRow("det", 128, 4)
	solverRow("det", 512, 4)
	solverRow("rounded", 128, 4)
	solverRow("rand", 192, 6)
	solverRow("trunc", 192, 6)
	solverRow("khan", 96, 4)
	tab.Notes = append(tab.Notes,
		"fast off = WithFastPath(false): each node's driver runs in a plain-loop driver that expands every Idle/Sleep/SleepUntil/Relay request into the exchange loop defining it; identical=true pins bit-equal Stats",
		"allocs/node-rnd is the fast run's whole-process malloc count per simulated node-round (engine + solver + GC noise); allocs/run is the same count per fast run",
		"to judge an allocation change read allocs/run: allocs/node-rnd divides by simulated rounds, so a change that cuts rounds reads there as an allocation rise")
	return tab
}

// benchWireKind is the 64-bit payload kind of the engine workloads (E2's
// idle+wireflood, E5's parked+flood and broadcast items).
const benchWireKind uint16 = 100

func init() { congest.RegisterWireKind(benchWireKind, 64) }

// floodIdle is how many rounds a flood node parks before each exchange,
// so one flood cycle spans floodIdle+1 rounds.
const floodIdle = 199

// startFlood is the node program of the engine workloads: cycles rounds
// of a full-degree flood, each after floodIdle parked rounds.
func startFlood(cycles int) func(h *congest.Host) (congest.Request, congest.Driver) {
	return func(h *congest.Host) (congest.Request, congest.Driver) {
		return congest.Idle(0), &flood{cycles: cycles, out: make([]congest.Send, h.Degree())}
	}
}

// flood is startFlood's driver.
type flood struct {
	cycles, cycle int
	parked        bool // the pending request is the cycle's Idle
	out           []congest.Send
}

func (d *flood) Next([]congest.Recv) (congest.Request, bool) {
	if d.cycle == d.cycles {
		return congest.Request{}, false
	}
	if !d.parked {
		d.parked = true
		return congest.Idle(floodIdle), true
	}
	d.parked = false
	for p := range d.out {
		d.out[p] = congest.Send{Port: p, Wire: congest.Wire{Kind: benchWireKind, C: int64(d.cycle)}}
	}
	d.cycle++
	return congest.Exchange(d.out), true
}
