package main

import (
	"fmt"
	"sync"
	"time"

	sf "steinerforest"
	"steinerforest/internal/moat"
	"steinerforest/internal/steiner"
	"steinerforest/internal/workload"
)

// familySeed derives the generator seed of one resident instance from the
// workload seed (SplitMix64 finalizer, kept positive), so instances of
// different slots and attempts never share randomness.
func familySeed(seed int64, slot, attempt int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(slot)<<20 + uint64(attempt)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z>>2) + 1
}

// singlePhase returns the first instance of family, over the family seeds
// derived from (seed, slot), whose moat-growing oracle finishes in one
// merge phase. The det solver runs one phase per oracle phase, so this
// holds the phase count (the k of Thm 4.17's O(ks+t)) fixed while the seed
// varies weights and terminal placement: about two seeds in three qualify,
// and the rest would cost 2-3x more rounds each. It also returns the
// generation time spent, rejected attempts included.
func singlePhase(family string, n, k int, seed int64, slot int) (*steiner.Instance, workload.Params, time.Duration, error) {
	var spent time.Duration
	for attempt := 0; attempt < 64; attempt++ {
		p := workload.Params{N: n, K: k, Seed: familySeed(seed, slot, attempt)}
		start := time.Now()
		gen, err := workload.Generate(family, p)
		spent += time.Since(start)
		if err != nil {
			return nil, p, spent, err
		}
		oracle, err := moat.SolveAKR(gen.Instance)
		if err != nil {
			return nil, p, spent, err
		}
		if oracle.Phases == 1 {
			gen.Instance.G.Freeze()
			return gen.Instance, p, spent, nil
		}
	}
	return nil, workload.Params{}, spent, fmt.Errorf("no single-phase %s instance for seed %d slot %d", family, seed, slot)
}

// answer is the part of a solve result that a served response carries;
// served and in-process answers must match a standalone Solve on all of it.
type answer struct {
	Weight    int64
	Edges     int
	Rounds    int
	Messages  int64
	Bits      int64
	LB        float64
	Certified bool
}

func answerOf(res *sf.Result) answer {
	a := answer{Weight: res.Weight, Edges: res.Solution.Size(), LB: res.LowerBound, Certified: res.Certified}
	if res.Stats != nil {
		a.Rounds, a.Messages, a.Bits = res.Stats.Rounds, res.Stats.Messages, res.Stats.Bits
	}
	return a
}

// boundOK checks the paper's approximation guarantee against the certified
// lower bound: det is a 2-approximation (Thm 4.17), rounded with the
// default ε = 1/2 a (2+ε)-approximation. Other algorithms are unchecked.
func boundOK(algo string, a answer) bool {
	factor := map[string]float64{"det": 2, "rounded": 2.5}[algo]
	return factor == 0 || float64(a.Weight) <= factor*a.LB*(1+1e-12)
}

// ratio is weight over the certified lower bound (0 when uncertified).
func (a answer) ratio() float64 {
	if !a.Certified || a.LB <= 0 {
		return 0
	}
	return float64(a.Weight) / a.LB
}

// akrCell computes one instance's moat-growing dual once. The oracle
// depends on the instance alone, so every certified answer on the
// instance shares it; Solve runs exactly this call for its certificate.
type akrCell struct {
	once sync.Once
	ins  *steiner.Instance
	lb   float64
	ms   float64
	err  error
}

func (c *akrCell) get() (float64, error) {
	c.once.Do(func() {
		start := time.Now()
		oracle, err := moat.SolveAKR(c.ins)
		c.ms = ms(time.Since(start))
		if err != nil {
			c.err = err
			return
		}
		c.lb = oracle.DualSum.Float()
	})
	return c.lb, c.err
}

// refJob is one (instance, spec) whose standalone answer the workload's
// answers are checked against.
type refJob struct {
	ins  *steiner.Instance
	spec sf.Spec // certificate on
	akr  *akrCell
	algo string

	res     *sf.Result
	want    answer
	solveMs float64
	err     error
}

// computeRefs answers every job standalone on two workers: Solve with the
// certificate skipped, then the instance's shared oracle run, which is
// Solve's own composition. Every forest must pass Verify.
func computeRefs(jobs []*refJob) {
	next := make(chan *refJob)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				j.compute()
			}
		}()
	}
	for _, j := range jobs {
		next <- j
	}
	close(next)
	wg.Wait()
}

func (j *refJob) compute() {
	spec := j.spec
	spec.NoCertificate = true
	start := time.Now()
	res, err := sf.Solve(j.ins, spec)
	j.solveMs = ms(time.Since(start))
	if err != nil {
		j.err = err
		return
	}
	if err := sf.Verify(j.ins, res.Solution); err != nil {
		j.err = fmt.Errorf("reference forest fails Verify: %w", err)
		return
	}
	lb, err := j.akr.get()
	if err != nil {
		j.err = err
		return
	}
	res.LowerBound, res.Certified = lb, true
	j.res, j.want = res, answerOf(res)
	if !boundOK(j.algo, j.want) {
		j.err = fmt.Errorf("%s weight %d exceeds its bound over lower bound %v", j.algo, j.want.Weight, lb)
	}
}
