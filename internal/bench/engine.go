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

// E1 measures the raw engine: a dense full-degree flood on grid networks of
// growing size, serial versus sharded routing. It is the scaling experiment
// the allocation-free scheduler exists for — the paper's bounds only
// separate at node counts the old per-round-map engine could not reach.
func E1(sc Scale) *Table {
	tab := &Table{
		ID:     "E1",
		Title:  "engine throughput: flood msgs/sec vs n, serial and sharded",
		Claim:  "engineering: the round scheduler is allocation-free and shards across workers deterministically",
		Header: []string{"n", "m", "rounds", "messages", "ms(serial)", "ms(sharded)", "Mmsg/s(serial)", "Mmsg/s(sharded)", "identical"},
	}
	workers := runtime.NumCPU()
	if workers < 2 {
		workers = 2
	}
	const rounds = 40
	for _, side := range []int{32, 64, 128} {
		side := side / int(sc)
		if side < 8 {
			side = 8
		}
		g := graph.Grid(side, side, graph.UnitWeights)
		program := func(h *congest.Host) {
			out := make([]congest.Send, h.Degree())
			for r := 0; r < rounds; r++ {
				for p := 0; p < h.Degree(); p++ {
					out[p] = congest.Send{Port: p, Wire: congest.Wire{Kind: benchWireKind, C: int64(r + h.ID())}}
				}
				h.Exchange(out)
			}
		}
		run := func(par int) (*congest.Stats, float64, error) {
			start := time.Now()
			stats, err := congest.Run(g, program, congest.WithParallelism(par))
			return stats, float64(time.Since(start).Microseconds()) / 1000.0, err
		}
		serial, msSerial, err := run(1)
		if err != nil {
			tab.Notes = append(tab.Notes, err.Error())
			continue
		}
		sharded, msSharded, err := run(workers)
		if err != nil {
			tab.Notes = append(tab.Notes, err.Error())
			continue
		}
		same := serial.Messages == sharded.Messages && serial.Bits == sharded.Bits &&
			serial.Rounds == sharded.Rounds
		if !same {
			tab.Failed = true
		}
		rate := func(ms float64) string {
			if ms <= 0 {
				return "-"
			}
			return f(float64(serial.Messages) / ms / 1000.0)
		}
		tab.Rows = append(tab.Rows, []string{
			d(g.N()), d(g.M()), d(serial.Rounds), d64(serial.Messages),
			f(msSerial), f(msSharded), rate(msSerial), rate(msSharded),
			fmt.Sprintf("%v", same),
		})
	}
	tab.Notes = append(tab.Notes,
		fmt.Sprintf("sharded = WithParallelism(%d); 'identical' asserts bit-exact Stats across schedulers", workers))
	return tab
}

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
			"ns/rnd(fast)", "ns/rnd(off)", "speedup", "allocs/node-rnd", "identical"},
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
		return congest.Run(g, func(h *congest.Host) {
			out := make([]congest.Send, h.Degree())
			for cycle := 0; cycle < 12; cycle++ {
				h.Idle(199)
				for p := 0; p < h.Degree(); p++ {
					out[p] = congest.Send{Port: p, Wire: congest.Wire{Kind: benchWireKind, C: int64(cycle)}}
				}
				h.Exchange(out)
			}
		}, congest.WithFastPath(!noFast))
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
	if Large {
		// Opt-in large-scale rows (dsfbench -large): the scheduler's
		// speedup and the allocs/node-round floor at n = 2048+, cheap to
		// run now that a parked node costs one coroutine stack. Excluded
		// from the committed snapshots (the compare needs stable rows).
		solverRow("det", 2048, 6)
		solverRow("rand", 2048, 8)
		// One n=10^5 engine-level smoke row: the idle workload at E5
		// scale, still under the fast-on/off A/B (the off run exchanges
		// every round on every node, so keep the cycle count low).
		hugeN := 100_000
		hside := 1
		for hside*hside < hugeN {
			hside++
		}
		hg := graph.Grid(hside, hside, graph.UnitWeights)
		addRow("idle+wireflood", hg.N(), func(noFast bool) (*congest.Stats, error) {
			return congest.Run(hg, func(h *congest.Host) {
				out := make([]congest.Send, h.Degree())
				for cycle := 0; cycle < 2; cycle++ {
					h.Idle(199)
					for p := 0; p < h.Degree(); p++ {
						out[p] = congest.Send{Port: p, Wire: congest.Wire{Kind: benchWireKind, C: int64(cycle)}}
					}
					h.Exchange(out)
				}
			}, congest.WithFastPath(!noFast))
		})
	}
	tab.Notes = append(tab.Notes,
		"fast off = WithFastPath(false): Idle/Sleep/Relay degrade to per-round exchanges; identical=true pins bit-equal Stats",
		"allocs/node-rnd is the fast run's whole-process malloc count per simulated node-round (engine + solver + GC noise)")
	return tab
}

// benchWireKind is the 64-bit payload kind of the E1 flood and the E2
// idle workload.
const benchWireKind uint16 = 100

func init() { congest.RegisterWireKind(benchWireKind, 64) }

// E3 measures the continuation scheduler against the legacy goroutine
// transport on active-dense workloads — the regime where every node-round
// used to pay two channel operations and two runtime-scheduler wakeups.
// Both sides run the identical program with identical options except the
// transport; "identical" asserts bit-equal Stats, so the speedup column is
// a pure scheduling delta.
func E3(sc Scale) *Table {
	tab := &Table{
		ID:    "E3",
		Title: "continuation scheduler: ns/node-round vs legacy goroutine transport",
		Claim: "engineering: driving suspended node programs in-place removes the per-round channel hops and wakeups of goroutine hosting",
		Header: []string{"workload", "n", "rounds", "ms(cont)", "ms(goro)",
			"ns/node-rnd(cont)", "ns/node-rnd(goro)", "speedup", "identical"},
	}
	shrink := func(n int) int {
		n /= int(sc)
		if n < 24 {
			n = 24
		}
		return n
	}
	addRow := func(name string, n int, run func(legacy bool) (*congest.Stats, error)) {
		timed := func(legacy bool) (*congest.Stats, float64, error) {
			start := time.Now()
			stats, err := run(legacy)
			return stats, float64(time.Since(start).Microseconds()) / 1000.0, err
		}
		// A transport erroring outright is a failed identity assertion, not
		// just a dropped row — this table is the CI scheduler gate.
		cont, msCont, err := timed(false)
		if err != nil {
			tab.Notes = append(tab.Notes, name+": "+err.Error())
			tab.Failed = true
			return
		}
		goro, msGoro, err := timed(true)
		if err != nil {
			tab.Notes = append(tab.Notes, name+": "+err.Error())
			tab.Failed = true
			return
		}
		same := cont.Rounds == goro.Rounds && cont.Messages == goro.Messages &&
			cont.Bits == goro.Bits && cont.MaxMessageBits == goro.MaxMessageBits &&
			cont.DroppedToTerminated == goro.DroppedToTerminated
		if !same {
			tab.Failed = true
		}
		perNodeRound := func(ms float64, rounds int) string {
			return fmt.Sprintf("%.0f", ms*1e6/float64(rounds)/float64(n))
		}
		tab.Rows = append(tab.Rows, []string{
			name, d(n), d(cont.Rounds), f(msCont), f(msGoro),
			perNodeRound(msCont, cont.Rounds), perNodeRound(msGoro, goro.Rounds), f(msGoro / msCont),
			fmt.Sprintf("%v", same),
		})
	}

	// Raw engine rows: a dense full-degree flood (every node active every
	// round, the worst case for per-round scheduling overhead), serial and
	// sharded.
	const floodRounds = 60
	floodProgram := func(h *congest.Host) {
		out := make([]congest.Send, h.Degree())
		for r := 0; r < floodRounds; r++ {
			for p := 0; p < h.Degree(); p++ {
				out[p] = congest.Send{Port: p, Wire: congest.Wire{Kind: benchWireKind, C: int64(r + h.ID())}}
			}
			h.Exchange(out)
		}
	}
	floodN := shrink(1600)
	side := 1
	for side*side < floodN {
		side++
	}
	g := graph.Grid(side, side, graph.UnitWeights)
	addRow("dense-flood", g.N(), func(legacy bool) (*congest.Stats, error) {
		return congest.Run(g, floodProgram, congest.WithGoroutines(legacy))
	})
	workers := runtime.NumCPU()
	if workers < 2 {
		workers = 2
	}
	addRow(fmt.Sprintf("dense-flood/p%d", workers), g.N(), func(legacy bool) (*congest.Stats, error) {
		return congest.Run(g, floodProgram, congest.WithGoroutines(legacy), congest.WithParallelism(workers))
	})

	// Solver rows: end-to-end runs whose dense phases dominated the
	// goroutine scheduler's profile.
	solverRow := func(algo string, n, k int) {
		n = shrink(n)
		gen, err := workload.Generate("planted", workload.Params{N: n, K: k, Seed: 9})
		if err != nil {
			tab.Notes = append(tab.Notes, algo+": "+err.Error())
			return
		}
		addRow(algo, n, func(legacy bool) (*congest.Stats, error) {
			res, err := steinerforest.Solve(gen.Instance, steinerforest.Spec{
				Algorithm: algo, Seed: 5, NoCertificate: true, LegacyScheduler: legacy,
			})
			if err != nil {
				return nil, err
			}
			return res.Stats, nil
		})
	}
	solverRow("det", 512, 4)
	solverRow("rand", 192, 6)
	solverRow("khan", 96, 4)
	if Large {
		// Opt-in n=2048 row (dsfbench -large): the continuation-vs-
		// goroutine gap grows with n, and the goroutine side pays one
		// stack + two channels per node at this scale.
		solverRow("det", 2048, 6)
	}
	tab.Notes = append(tab.Notes,
		"goro = WithGoroutines(true): the legacy one-goroutine-per-node channel transport; identical=true pins bit-equal Stats",
		"ns/node-rnd divides wall time by rounds x n: on solver rows many node-rounds are parked (engine-side), so cross-row values are not comparable — the cont/goro delta within a row is the point")
	return tab
}
