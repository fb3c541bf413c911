package steinerforest

import (
	"fmt"
	"sync"
)

// BatchSeed derives the simulation seed of the i-th instance in a batch
// from the batch's base seed (Spec.Seed; 0 means the default 1). The
// derivation is a SplitMix64 mix, so per-instance seeds are spread over
// the whole seed space while remaining a pure function of (base, i):
// SolveBatch is defined to be equivalent to the sequential loop
//
//	for i, ins := range instances {
//		s := spec
//		s.Seed = BatchSeed(spec.Seed, i)
//		results[i], err = Solve(ins, s)
//	}
//
// at every worker count.
func BatchSeed(base int64, i int) int64 {
	if base == 0 {
		base = 1
	}
	z := uint64(base) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	s := int64(z)
	if s == 0 {
		s = 1
	}
	return s
}

// SolveBatch solves many instances with one Spec on a pool of workers
// and returns one Result per instance, in input order. Each instance
// runs with its own seed, BatchSeed(spec.Seed, i), so the batch is
// deterministic: results are bit-identical at every worker count
// (workers <= 1 runs the sequential reference loop). If any instance
// fails, the error of the lowest-indexed failure is returned and the
// results are discarded.
func SolveBatch(instances []*Instance, spec Spec, workers int) ([]*Result, error) {
	results := make([]*Result, len(instances))
	solveAt := func(i int) error {
		s := spec
		s.Seed = BatchSeed(spec.Seed, i)
		res, err := Solve(instances[i], s)
		if err != nil {
			return fmt.Errorf("steinerforest: batch instance %d: %w", i, err)
		}
		results[i] = res
		return nil
	}
	if workers <= 1 || len(instances) <= 1 {
		for i := range instances {
			if err := solveAt(i); err != nil {
				return nil, err
			}
		}
		return results, nil
	}
	if workers > len(instances) {
		workers = len(instances)
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		next int
		// firstErr is the error of the lowest failing index, so the
		// reported failure matches the sequential loop's.
		firstErr    error
		firstErrIdx int
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				failed := firstErr != nil
				mu.Unlock()
				// After a failure the batch's results are discarded
				// anyway; stop claiming new work. Indices below the
				// failure were claimed before it was recorded, so the
				// lowest-index error contract is unaffected.
				if failed || i >= len(instances) {
					return
				}
				if err := solveAt(i); err != nil {
					mu.Lock()
					if firstErr == nil || i < firstErrIdx {
						firstErr, firstErrIdx = err, i
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}
