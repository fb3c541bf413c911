package main

import "fmt"

// exactMetrics are the count metrics the fixed request lists and the
// disjoint client slices make timing-free: two runs at one seed must
// agree on them exactly.
var exactMetrics = []string{"sim_rounds_per_op", "sim_messages_per_op", "approx_ratio",
	"serve.hit_ratio", "serve.cache_misses", "serve.collapsed"}

// runSelfCheck runs every workload twice, traced, at cfg's seed and
// length, and checks that the count metrics repeat exactly, that
// serve.collapsed reads 0, and that no answer was wrong.
func runSelfCheck(cfg config) int {
	cfg.trace = true
	code := 0
	for _, name := range workloadNames() {
		var runs [2]*report
		for i := range runs {
			rep, err := workloads[name](cfg)
			if err != nil {
				fmt.Printf("%s: FAIL: %v\n", name, err)
				return 1
			}
			runs[i] = rep
		}
		ok := true
		for i, rep := range runs {
			if len(rep.violations) > 0 {
				fmt.Printf("%s: FAIL: run %d had %d violations, first: %s\n", name, i+1, len(rep.violations), rep.violations[0])
				ok = false
			}
		}
		for _, metric := range exactMetrics {
			a, b := lookup(runs[0], metric), lookup(runs[1], metric)
			if a != b {
				fmt.Printf("%s: FAIL: %s differs between runs: %v vs %v\n", name, metric, a, b)
				ok = false
			}
		}
		if c := lookup(runs[0], "serve.collapsed"); c != 0 {
			fmt.Printf("%s: FAIL: serve.collapsed %v, want 0\n", name, c)
			ok = false
		}
		if !ok {
			code = 1
			continue
		}
		fmt.Printf("%s: ok (", name)
		for i, metric := range exactMetrics {
			if i > 0 {
				fmt.Print(", ")
			}
			fmt.Printf("%s %v", metric, lookup(runs[0], metric))
		}
		fmt.Println(")")
	}
	return code
}

func lookup(rep *report, metric string) float64 {
	if v, ok := rep.e2e[metric]; ok {
		return v
	}
	return rep.layer[metric]
}
