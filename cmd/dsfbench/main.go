// Command dsfbench regenerates the paper's evaluation: one table per claim
// (see the README's Commands section for the snapshot format and the
// committed BENCH_*.json snapshots that record the results), plus the E1
// engine-scaling and E2 event-driven-scheduler experiments.
//
// Usage:
//
//	dsfbench [-table all|t1|...|e5] [-quick] [-large] [-huge] [-json]
//	         [-cpuprofile f] [-memprofile f]
//	dsfbench -compare old.json new.json [-tolerance pct] [-memtolerance pct] [-report f]
//
// With -json the results are emitted as a machine-readable array of table
// objects ({id, title, claim, header, rows, notes, elapsed_ms}), so the
// perf trajectory can be recorded and diffed across revisions. -compare
// diffs two such snapshots: correctness cells (rounds, weights, ratios,
// feasibility) must match exactly, timing cells are reported as deltas,
// and the exit status is nonzero on any correctness drift or on a
// per-table elapsed-time regression beyond -tolerance percent. Exit codes
// distinguish the failure classes: 1 for correctness drift, 3 when every
// correctness cell matched and only the timing/memory gate tripped —
// callers may retry exit 3 once (timing noise), never exit 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	steinerforest "steinerforest"
	"steinerforest/internal/bench"
)

func main() {
	// All work happens in run so deferred cleanup — notably stopping the
	// CPU profile, which is only serialized on StopCPUProfile — executes
	// before the process exits, whatever the exit code.
	os.Exit(run())
}

func run() int {
	keys := make([]string, 0, len(bench.Index))
	for _, e := range bench.Index {
		keys = append(keys, e.Key)
	}
	table := flag.String("table", "all",
		"experiment to run (all, "+strings.Join(keys, ", ")+")")
	quick := flag.Bool("quick", false, "shrink instance sizes for a fast smoke run")
	large := flag.Bool("large", false, "add the opt-in large-scale rows (n=2048+) to the E2 scheduler table")
	huge := flag.Bool("huge", false, "add the opt-in n=10^6 rows to the E5 scale table")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON instead of text tables")
	compare := flag.Bool("compare", false, "compare two -json snapshots (old.json new.json) instead of running")
	tolerance := flag.Float64("tolerance", 10, "with -compare: max per-table elapsed_ms regression, in percent")
	memTolerance := flag.Float64("memtolerance", 25, "with -compare: max peak-RSS column growth, in percent")
	report := flag.String("report", "", "with -compare: also write the report to this file (for CI artifacts)")
	policy := flag.String("policy", "", "restrict the D1 dynamic-demand table to one policy: "+steinerforest.PolicyUsage())
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the benchmark run to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile (after the run) to this file")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "dsfbench: -compare needs exactly two snapshot files (old.json new.json)")
			return 2
		}
		return runCompare(flag.Arg(0), flag.Arg(1), *tolerance, *memTolerance, *report)
	}
	bench.Large = *large
	bench.Huge = *huge
	if *policy != "" {
		// Parse eagerly so a typo fails with the registry's options list
		// instead of a failed D1 row.
		if _, err := steinerforest.ParsePolicy(*policy); err != nil {
			fmt.Fprintln(os.Stderr, "dsfbench: bad -policy:", err)
			return 2
		}
		bench.PolicyFilter = *policy
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dsfbench:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "dsfbench:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	sc := bench.Scale(1)
	if *quick {
		sc = bench.Scale(3)
	}
	timed := func(run func(bench.Scale) *bench.Table) *bench.Table {
		start := time.Now()
		tab := run(sc)
		tab.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000.0
		return tab
	}
	var tables []*bench.Table
	key := strings.ToLower(*table)
	for _, e := range bench.Index {
		if key == "all" || key == e.Key {
			tables = append(tables, timed(e.Run))
		}
	}
	if len(tables) == 0 {
		fmt.Fprintf(os.Stderr, "dsfbench: unknown table %q (have: %s)\n", *table, strings.Join(keys, ", "))
		return 2
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dsfbench:", err)
			return 1
		}
		runtime.GC()
		err = pprof.WriteHeapProfile(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "dsfbench:", err)
			return 1
		}
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(tables); err != nil {
			fmt.Fprintln(os.Stderr, "dsfbench:", err)
			return 1
		}
	} else {
		fmt.Print(bench.RenderAll(tables))
	}
	for _, tab := range tables {
		if tab.Failed {
			// The notes name the failed check; repeat them on stderr so a
			// -json run piped to /dev/null (make chaos-smoke) still says why.
			fmt.Fprintf(os.Stderr, "dsfbench: table %s failed its built-in assertion (its 'identical' or 'ok' column); notes:\n", tab.ID)
			for _, note := range tab.Notes {
				fmt.Fprintln(os.Stderr, "  "+note)
			}
			return 1
		}
	}
	return 0
}

func runCompare(oldPath, newPath string, tolerance, memTolerance float64, reportPath string) int {
	load := func(path string) ([]*bench.Table, bool) {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dsfbench:", err)
			return nil, false
		}
		var tabs []*bench.Table
		if err := json.Unmarshal(data, &tabs); err != nil {
			fmt.Fprintf(os.Stderr, "dsfbench: %s: %v\n", path, err)
			return nil, false
		}
		return tabs, true
	}
	old, ok := load(oldPath)
	if !ok {
		return 2
	}
	cur, ok := load(newPath)
	if !ok {
		return 2
	}
	res := bench.Compare(old, cur, tolerance, memTolerance)
	fmt.Print(res.Report)
	if reportPath != "" {
		if err := os.WriteFile(reportPath, []byte(res.Report), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "dsfbench:", err)
			return 2
		}
	}
	switch {
	case res.Drift:
		fmt.Fprintln(os.Stderr, "dsfbench: correctness drift between snapshots")
		return 1
	case res.Regression:
		// Distinct exit code: every correctness cell matched and only the
		// timing/memory gate tripped. Same-machine timing noise reaches
		// ±25-40%, so callers (make bench-compare) retry exactly this case
		// once before failing; drift is never retried.
		fmt.Fprintf(os.Stderr, "dsfbench: elapsed-time regression beyond %.0f%% or peak-RSS growth beyond %.0f%%\n", tolerance, memTolerance)
		return 3
	}
	return 0
}
