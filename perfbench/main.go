// Command perfbench is the repository's benchmark. Each run drives one
// closed-loop workload, checks every answer against a standalone Solve,
// and prints its metrics as one JSON object on the last line of standard
// output:
//
//	solve-det    steinerforest.Solve in-process (det, certificate on)
//	serve-zipf   Zipf-skewed certified reads against a live dsfserve
//	serve-churn  demand-update writes beside reads against a live dsfserve
//
// With -trace 0 the object holds the end-to-end metrics, with -trace 1 the
// per-layer metrics (timed from outside, around calls into each module's
// public functions). Run it through run.sh, which builds dsfserve and this
// program from the checkout:
//
//	bash perfbench/run.sh --workload serve-zipf --seed 1 --seconds 20 --trace 0
//
// -selfcheck instead runs every workload twice at a fixed seed and exits
// non-zero unless the count metrics repeat exactly.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// config is what every workload receives.
type config struct {
	seed     int64
	seconds  int
	trace    bool
	dsfserve string // dsfserve binary (serve-* workloads)
}

// report is one run's outcome: op counts, correctness violations, and the
// metrics by name.
type report struct {
	attempted  int
	violations []string // one per failed op or mismatched counter
	e2e, layer map[string]float64
	notes      []string
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// violate records one correctness violation.
func (r *report) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type metricDef struct{ name, unit string }

// endToEnd lists the metrics a -trace 0 run prints. failed_share is
// printed on its own line: it is zero on a correct run, and the JSON's
// attempted/failed fields carry it.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_tail", "ms"},
	{"ok_per_s", "1/s"},
	{"sim_rounds_per_op", "count"},
	{"sim_messages_per_op", "count"},
	{"approx_ratio", "ratio"},
}

// perLayer lists the metrics a -trace 1 run prints, on every workload; a
// layer a workload does not reach reads 0.
var perLayer = []metricDef{
	{"workload.generate_ms", "ms"},
	{"serve.register_ms", "ms"},
	{"setup.warmup_ms", "ms"},
	{"congest.rounds_per_solve", "count"},
	{"congest.messages_per_solve", "count"},
	{"congest.bits_per_solve", "count"},
	{"congest.us_per_round", "us"},
	{"congest.arena_setup_us_warm", "us"},
	{"congest.arena_setup_us_cold", "us"},
	{"congest.arena_warm_share", "ratio"},
	{"detforest.solve_ms_p50", "ms"},
	{"detforest.phases", "count"},
	{"detforest.merges", "count"},
	{"randforest.solve_ms_p50", "ms"},
	{"randforest.levels", "count"},
	{"moat.akr_ms_p50", "ms"},
	{"moat.cert_share", "ratio"},
	{"steiner.verify_us", "us"},
	{"steinerforest.solve_ms_p50", "ms"},
	{"steinerforest.allocs_per_solve", "count"},
	{"steinerforest.alloc_mb_per_solve", "MB"},
	{"go.gc_per_solve", "count"},
	{"policy.rounds_per_event", "count"},
	{"policy.resolved_share", "ratio"},
	{"serve.http_us_p50", "us"},
	{"serve.hit_ms_p50", "ms"},
	{"serve.miss_ms_p50", "ms"},
	{"serve.wait_ms_mean", "ms"},
	{"serve.hit_ratio", "ratio"},
	{"serve.cache_misses", "count"},
	{"serve.collapsed", "count"},
	{"serve.mean_batch", "count"},
	{"serve.update_ms_p50", "ms"},
	{"serve.cache_mb", "MB"},
	{"proc.cpu_ms_per_op", "ms"},
	{"trace.overhead_ms", "ms"},
	{"trace.accounted_share", "ratio"},
}

// overrun bounds a timed pass: it stops sending ops once it has run this
// multiple of its nominal length, so a slow machine shortens a run rather
// than stretching it. Ops never sent are not attempted.
const overrun = 1.5

// sized is the op count of a run: the nominal rate times the run length.
func sized(seconds int, rate float64) int {
	return max(12, int(float64(seconds)*rate))
}

// passLimit is the time limit of each of passes passes sharing one run.
func passLimit(cfg config, passes int) time.Duration {
	return time.Duration(overrun * float64(cfg.seconds) / float64(passes) * float64(time.Second))
}

var workloads = map[string]func(config) (*report, error){
	"solve-det":   runSolveDet,
	"serve-zipf":  runServeZipf,
	"serve-churn": runServeChurn,
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "workload seed: every generated input derives from it")
	seconds := flag.Int("seconds", 20, "nominal length of the timed phase; the op list is sized from it")
	trace := flag.Int("trace", 0, "0 prints the end-to-end metrics, 1 the per-layer metrics")
	dsfserve := flag.String("dsfserve", "", "dsfserve binary for the serve-* workloads")
	selfcheck := flag.Bool("selfcheck", false, "run every workload twice at a fixed seed and assert exact repeats of the count metrics")
	flag.Parse()

	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: want -seconds >= 1 and -trace 0 or 1")
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, dsfserve: *dsfserve}
	if *selfcheck {
		return runSelfCheck(cfg)
	}
	fn, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	ctx, err := json.Marshal(map[string]any{"context": machineContext(".", *name, cfg)})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(ctx))

	rep, err := fn(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return printReport(rep, cfg.trace)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printReport prints the notes, the violations, and the result line, and
// returns the exit code: non-zero on any correctness violation.
func printReport(rep *report, trace bool) int {
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	failed := len(rep.violations)
	fmt.Printf("failed_share %v (%d violations over %d ops)\n", div(float64(failed), float64(rep.attempted)), failed, rep.attempted)
	for i, v := range rep.violations {
		if i == 20 {
			fmt.Printf("... %d more violations\n", len(rep.violations)-i)
			break
		}
		fmt.Println("VIOLATION:", v)
	}
	defs, values := endToEnd, rep.e2e
	if trace {
		// A traced run's untraced pass, for the tracing overhead.
		if b, err := json.Marshal(rep.e2e); err == nil {
			fmt.Println("untraced pass end-to-end:", string(b))
		}
		defs, values = perLayer, rep.layer
	}
	metrics := make(map[string]any, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			fmt.Fprintln(os.Stderr, "perfbench: metric not measured:", d.name)
			return 1
		}
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	correct := failed == 0
	out, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": rep.attempted, "failed": failed, "metrics": metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !correct {
		return 1
	}
	return 0
}
