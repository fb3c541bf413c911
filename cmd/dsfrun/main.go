// Command dsfrun solves one Steiner Forest instance with a chosen
// algorithm from the solver registry, printing the selected forest, its
// certified approximation ratio, and the CONGEST execution statistics.
// The instance comes from a workload-registry family (-gen), from an
// instance file (-in), or from the legacy inline GNP generator.
//
// Usage:
//
//	dsfrun [-n 40] [-k 3] [-maxw 64] [-seed 1] [-algo det] [-eps 1/2]
//	       [-nocert] [-gen family] [-in file] [-out file]
//	dsfrun -timeline family [-events 24] [-policy full] [-tlout file]
//	dsfrun -tlin file [-policy repair]
//
// -algo accepts any registered solver (det, rounded, rand, trunc, khan,
// central); -gen any registered workload family (geometric, ba,
// roadmesh, planted, gnp, grid2d). -in reads a text or JSON instance
// file (format sniffed from the content); -out writes the instance that
// was solved (format chosen by extension: .json is JSON, anything else
// the DIMACS-gr-style text form), so instances round-trip through files.
//
// Timeline mode (-timeline or -tlin) solves a dynamic demand stream
// instead of one static instance: pairs arrive and depart over a fixed
// graph, and the -policy (full|repair|every-k:<k>, shared with dsfserve
// and dsfbench) decides how much re-solving each event pays for. The
// per-event table reports rounds/messages and the standing forest's
// weight; -tlout round-trips the generated timeline through a file.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	steinerforest "steinerforest"
	"steinerforest/internal/graph"
	"steinerforest/internal/workload"
)

// validatePairCount checks that k pair components fit on n nodes: the
// generator places 2 distinct terminals per component from one
// permutation, so 2k <= n must hold.
func validatePairCount(n, k int) error {
	if k < 1 {
		return fmt.Errorf("-k %d: need at least one component", k)
	}
	if 2*k > n {
		return fmt.Errorf("-k %d needs %d terminal nodes but -n is %d (need 2k <= n)", k, 2*k, n)
	}
	return nil
}

// specFromFlags builds the solve spec from the flags and validates it,
// so a bad -algo or -eps fails before any instance is generated, printed
// or written. The epsilon parse is strict (shared with dsfserve's request
// decoding): trailing garbage ("1/2junk", "3/4/5"), 1/0 and negative
// values are flag errors, not late solver errors.
func specFromFlags(algo string, seed int64, nocert bool, eps string) (steinerforest.Spec, error) {
	spec := steinerforest.Spec{Algorithm: algo, Seed: seed, NoCertificate: nocert}
	num, den, err := steinerforest.ParseEps(eps)
	if err != nil {
		return spec, fmt.Errorf("bad -eps %q: want num/den with positive integers, e.g. 1/2", eps)
	}
	spec.EpsNum, spec.EpsDen = num, den
	return spec, spec.Validate()
}

func main() {
	n := flag.Int("n", 40, "number of nodes")
	k := flag.Int("k", 3, "number of input components (2 terminals each)")
	maxw := flag.Int64("maxw", 64, "maximum edge weight")
	seed := flag.Int64("seed", 1, "random seed for instance and simulation")
	algo := flag.String("algo", "det",
		"algorithm: one of "+strings.Join(steinerforest.Algorithms(), ", "))
	eps := flag.String("eps", "1/2", "epsilon for -algo rounded, as num/den")
	nocert := flag.Bool("nocert", false, "skip the dual-oracle certificate (faster on large instances)")
	gen := flag.String("gen", "",
		"generate from this workload family: one of "+strings.Join(workload.Names(), ", "))
	in := flag.String("in", "", "read the instance from this file instead of generating")
	out := flag.String("out", "", "write the solved instance to this file")
	timeline := flag.String("timeline", "",
		"solve a dynamic demand timeline from this family: one of "+strings.Join(workload.TimelineNames(), ", "))
	tlin := flag.String("tlin", "", "read a timeline from this file instead of generating")
	tlout := flag.String("tlout", "", "write the generated timeline to this file")
	events := flag.Int("events", 24, "timeline events to generate for -timeline")
	policyFlag := flag.String("policy", "full", "re-solve policy for timeline mode: "+steinerforest.PolicyUsage())
	flag.Parse()

	spec, err := specFromFlags(*algo, *seed, *nocert, *eps)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dsfrun: %v\n", err)
		os.Exit(2)
	}

	if *timeline != "" || *tlin != "" {
		runTimeline(spec, *timeline, *tlin, *tlout, *policyFlag, workload.TimelineParams{
			Params: workload.Params{N: *n, K: *k, MaxW: *maxw, Seed: *seed},
			Events: *events,
		})
		return
	}

	var ins *steinerforest.Instance
	switch {
	case *in != "" && *gen != "":
		fmt.Fprintln(os.Stderr, "dsfrun: -in and -gen are mutually exclusive")
		os.Exit(2)
	case *in != "":
		loaded, err := workload.ReadInstanceFile(*in)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dsfrun:", err)
			os.Exit(1)
		}
		ins = loaded
		fmt.Printf("loaded %s: n=%d m=%d k=%d t=%d\n",
			*in, ins.G.N(), ins.G.M(), ins.NumComponents(), ins.NumTerminals())
	case *gen != "":
		generated, err := workload.Generate(*gen, workload.Params{
			N: *n, K: *k, MaxW: *maxw, Seed: *seed,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "dsfrun:", err)
			os.Exit(1)
		}
		ins = generated.Instance
		fmt.Printf("generated %s: n=%d m=%d k=%d t=%d\n",
			*gen, ins.G.N(), ins.G.M(), ins.NumComponents(), ins.NumTerminals())
		if generated.Planted != nil {
			fmt.Printf("planted solution: %d edges, weight %d (upper bound on OPT)\n",
				generated.Planted.Size(), generated.PlantedWeight)
		}
	default:
		// The legacy inline generator used to clamp silently (`c < *k &&
		// 2*c+1 < *n`), quietly solving a smaller instance when 2k > n.
		if err := validatePairCount(*n, *k); err != nil {
			fmt.Fprintln(os.Stderr, "dsfrun:", err)
			os.Exit(2)
		}
		rng := rand.New(rand.NewSource(*seed))
		g := graph.GNP(*n, 3.0/float64(*n), graph.RandomWeights(rng, *maxw), rng)
		ins = steinerforest.NewInstance(g)
		perm := rng.Perm(*n)
		for c := 0; c < *k; c++ {
			ins.SetComponent(c, perm[2*c], perm[2*c+1])
			fmt.Printf("component %d: nodes %d and %d\n", c, perm[2*c], perm[2*c+1])
		}
	}
	if *out != "" {
		if err := workload.WriteInstanceFile(*out, ins); err != nil {
			fmt.Fprintln(os.Stderr, "dsfrun:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote instance to %s\n", *out)
	}

	res, err := steinerforest.Solve(ins, spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsfrun:", err)
		os.Exit(1)
	}

	g := ins.G
	fmt.Printf("\ngraph: n=%d m=%d s=%d D=%d\n", g.N(), g.M(), g.ShortestPathDiameter(), g.Diameter())
	fmt.Printf("algorithm %s selected %d edges, weight %d\n", res.Algorithm, res.Solution.Size(), res.Weight)
	if res.LowerBound > 0 {
		fmt.Printf("certified OPT lower bound %.2f => ratio <= %.3f\n",
			res.LowerBound, float64(res.Weight)/res.LowerBound)
	}
	if res.Stats != nil {
		fmt.Printf("CONGEST execution: %d rounds, %d messages, %d bits\n",
			res.Stats.Rounds, res.Stats.Messages, res.Stats.Bits)
	}
	if err := steinerforest.Verify(ins.Minimalize(), res.Solution); err != nil {
		fmt.Fprintln(os.Stderr, "dsfrun: verification failed:", err)
		os.Exit(1)
	}
	fmt.Println("solution verified feasible")
}

// runTimeline is dsfrun's dynamic-demand mode: generate or load a
// timeline, drive the chosen policy down it, and print the per-event
// cost table.
func runTimeline(spec steinerforest.Spec, family, tlin, tlout, policyName string, p workload.TimelineParams) {
	pol, err := steinerforest.ParsePolicy(policyName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsfrun: bad -policy:", err)
		os.Exit(2)
	}

	var tl *workload.Timeline
	switch {
	case tlin != "" && family != "":
		fmt.Fprintln(os.Stderr, "dsfrun: -tlin and -timeline are mutually exclusive")
		os.Exit(2)
	case tlin != "":
		tl, err = workload.ReadTimelineFile(tlin)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dsfrun:", err)
			os.Exit(1)
		}
		fmt.Printf("loaded %s: n=%d m=%d initial=%d events=%d\n",
			tlin, tl.G.N(), tl.G.M(), len(tl.Initial), len(tl.Events))
	default:
		gen, err := workload.GenerateTimeline(family, p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dsfrun:", err)
			os.Exit(1)
		}
		tl = gen.Timeline
		fmt.Printf("generated %s: n=%d m=%d initial=%d events=%d\n",
			family, tl.G.N(), tl.G.M(), len(tl.Initial), len(tl.Events))
		if gen.Planted != nil {
			fmt.Printf("planted forest: %d edges, weight %d (OPT upper bound at every prefix)\n",
				gen.Planted.Size(), gen.PlantedWeight)
		}
	}
	if tlout != "" {
		if err := workload.WriteTimelineFile(tlout, tl); err != nil {
			fmt.Fprintln(os.Stderr, "dsfrun:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote timeline to %s\n", tlout)
	}

	tr, err := steinerforest.SolveTimeline(tl, spec, pol)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsfrun:", err)
		os.Exit(1)
	}

	fmt.Printf("\npolicy %s over %d events\n", tr.Policy, len(tr.Events))
	if tr.Bootstrap != nil {
		fmt.Printf("bootstrap: weight %d", tr.Bootstrap.Weight)
		if tr.Bootstrap.Stats != nil {
			fmt.Printf(", %d rounds, %d messages", tr.Bootstrap.Stats.Rounds, tr.Bootstrap.Stats.Messages)
		}
		fmt.Println()
	}
	fmt.Printf("%-4s %-3s %6s %6s %10s %12s %8s\n", "ev", "op", "u", "v", "rounds", "messages", "weight")
	for i, er := range tr.Events {
		kind := "    " // free (no solver run)
		switch {
		case er.Resolved:
			kind = " (R)"
		case er.Patched:
			kind = " (P)"
		}
		lb := ""
		if er.Certified {
			lb = fmt.Sprintf("  lb=%.1f", er.LowerBound)
		}
		fmt.Printf("%-4d %-3s %6d %6d %10d %12d %8d%s%s\n",
			i, er.Event.Op, er.Event.U, er.Event.V, er.Rounds, er.Messages, er.Weight, kind, lb)
	}
	fmt.Printf("\ntotals: %d rounds, %d messages, %d bits; %d full re-solves, %d patches\n",
		tr.TotalRounds, tr.TotalMessages, tr.TotalBits, tr.Resolves, tr.Patches)
	fmt.Printf("final forest: %d edges, weight %d\n", tr.Final.Size(), tr.FinalWeight)
}
