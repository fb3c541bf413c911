package steinerforest

import (
	"context"
	"fmt"
	"runtime/debug"
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
	specs := make([]Spec, len(instances))
	for i := range instances {
		specs[i] = spec
		specs[i].Seed = BatchSeed(spec.Seed, i)
	}
	return SolveBatchSpecs(instances, specs, workers)
}

// SolveBatchSpecs is the worker-pool primitive under SolveBatch: it
// solves instances[i] with specs[i], so every slot carries its own full
// Spec (algorithm, epsilon, seed, ...). Because each slot's seed is
// pinned in its Spec rather than derived from a shared base, slot i is
// bit-identical to a standalone Solve(instances[i], specs[i]) at every
// worker count and in any batch composition. A slot's Spec.Arena flows
// through unchanged, so concurrent slots solving the same resident graph
// share one warm arena pool (each run borrows an arena exclusively;
// results stay bit-identical, pooled or not). The error contract matches
// SolveBatch: lowest-indexed failure wins and results are discarded.
func SolveBatchSpecs(instances []*Instance, specs []Spec, workers int) ([]*Result, error) {
	if len(instances) != len(specs) {
		return nil, fmt.Errorf("steinerforest: %d instances but %d specs", len(instances), len(specs))
	}
	results := make([]*Result, len(instances))
	solveAt := func(i int) error {
		res, err := Solve(instances[i], specs[i])
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

// ErrSolverPanic wraps a panic recovered at a batch-slot boundary: the
// panicking slot's request fails with this error (carrying the panic
// value and stack) while every other slot completes normally. It is the
// serve layer's panic-isolation seam — a bad solver run becomes one 500,
// not a crashed process.
var ErrSolverPanic = fmt.Errorf("steinerforest: solver panicked")

// SlotResult is one slot's outcome from SolveBatchSlots: exactly one of
// Res/Err is meaningful (Err == nil ⇒ Res != nil).
type SlotResult struct {
	Res *Result
	Err error
}

// SlotFunc runs one batch slot. SolveBatchSlots uses SolveCtx when given
// nil; the serve layer's chaos harness substitutes a wrapper that injects
// stalls and panics around the real solve. The slot index identifies the
// batch position (fault injectors target slots deterministically by it).
type SlotFunc func(ctx context.Context, slot int, ins *Instance, spec Spec) (*Result, error)

// SolveBatchSlots is the robust sibling of SolveBatchSpecs: it solves
// instances[i] with specs[i] under ctxs[i] and reports one SlotResult per
// slot instead of collapsing the batch to a single error. Slots are
// independent end to end — a slot that fails, is cancelled (its context
// fires; the run aborts at the next simulated round boundary), or panics
// (recovered here, wrapped in ErrSolverPanic) never disturbs the others,
// and every successful slot is bit-identical to a standalone
// SolveCtx(ctxs[i], instances[i], specs[i]) at any worker count. ctxs may
// be nil (every slot runs uncancellable) and individual entries may be
// nil (that slot runs uncancellable). run selects the per-slot solve
// (nil = SolveCtx); the panic recovery wraps whatever run does.
func SolveBatchSlots(instances []*Instance, specs []Spec, ctxs []context.Context, workers int, run SlotFunc) ([]SlotResult, error) {
	if len(instances) != len(specs) {
		return nil, fmt.Errorf("steinerforest: %d instances but %d specs", len(instances), len(specs))
	}
	if ctxs != nil && len(ctxs) != len(instances) {
		return nil, fmt.Errorf("steinerforest: %d instances but %d contexts", len(instances), len(ctxs))
	}
	if run == nil {
		run = func(ctx context.Context, _ int, ins *Instance, spec Spec) (*Result, error) {
			return SolveCtx(ctx, ins, spec)
		}
	}
	results := make([]SlotResult, len(instances))
	solveAt := func(i int) {
		ctx := context.Background()
		if ctxs != nil && ctxs[i] != nil {
			ctx = ctxs[i]
		}
		res, err := runSlotProtected(run, ctx, i, instances[i], specs[i])
		if err != nil {
			results[i] = SlotResult{Err: fmt.Errorf("steinerforest: batch slot %d: %w", i, err)}
			return
		}
		results[i] = SlotResult{Res: res}
	}
	if workers <= 1 || len(instances) <= 1 {
		for i := range instances {
			solveAt(i)
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
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(instances) {
					return
				}
				solveAt(i)
			}
		}()
	}
	wg.Wait()
	return results, nil
}

// runSlotProtected executes one slot with a panic barrier: a panic
// anywhere under the slot's solve is recovered and converted to an
// ErrSolverPanic-wrapped error carrying the panic value and stack, so it
// fails one request instead of the process.
func runSlotProtected(run SlotFunc, ctx context.Context, slot int, ins *Instance, spec Spec) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v\n%s", ErrSolverPanic, r, debug.Stack())
		}
	}()
	return run(ctx, slot, ins, spec)
}
