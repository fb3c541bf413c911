// Package chaos provides seed-deterministic fault injectors for the
// serve layer's robustness harness: solver stalls and injected panics at
// the serve worker's solve boundary, and the cancel-delay schedules
// client-side storm drivers replay. Every decision is a pure function of
// (seed, site, counter), so a chaos run is exactly reproducible — the R1
// bench table (the `make chaos-smoke` CI gate) and the -race stress tests
// all replay identical fault sequences for a given seed.
//
// A nil *Injector (the production configuration) decides "no fault" and
// costs nothing.
package chaos

import (
	"sync/atomic"
	"time"
)

// Config selects which faults fire and how often. Every cadence is an
// "every Nth decision" counter (0 = never), offset by a seed-derived
// phase so different seeds hit different requests.
type Config struct {
	// Seed drives the phase offsets and jitter (0 = 1).
	Seed int64

	// StallEvery makes every Nth solve stall for Stall before solving —
	// a held-up worker (0 = never); the serve layer does not count the
	// stall as solver time. Stalls respect the solve's context: a
	// cancelled solve stops stalling immediately.
	StallEvery int
	Stall      time.Duration

	// PanicEvery makes every Nth solve panic instead of solving (0 =
	// never), exercising the serve worker's panic barrier around each
	// solve. PanicTarget restricts panics to solves of the named instance
	// ("" = all instances) — the quarantine tests use this to poison one
	// resident instance while its neighbors stay healthy.
	PanicEvery  int
	PanicTarget string
}

// Stats counts the faults an Injector actually fired.
type Stats struct {
	Solves int64 `json:"solves"` // solve decisions taken
	Stalls int64 `json:"stalls"` // solves that stalled
	Panics int64 `json:"panics"` // solves that panicked
}

// Injector hands out fault decisions. Safe for concurrent use: the
// decision counters are atomic, so concurrent solves take distinct
// decisions (which decision lands on which solve follows the order the
// workers reach them — deterministic whenever the harness serializes
// its solves, as the quarantine rows and tests do).
type Injector struct {
	cfg        Config
	stallPhase int64
	panicPhase int64

	solves atomic.Int64
	stalls atomic.Int64
	panics atomic.Int64
}

// New builds an Injector for cfg.
func New(cfg Config) *Injector {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	in := &Injector{cfg: cfg}
	if cfg.StallEvery > 0 {
		in.stallPhase = int64(mix(cfg.Seed, 0xC5) % uint64(cfg.StallEvery))
	}
	if cfg.PanicEvery > 0 {
		in.panicPhase = int64(mix(cfg.Seed, 0x9E) % uint64(cfg.PanicEvery))
	}
	return in
}

// SolveAction is the decision for one solve: stall this long (0 =
// don't), then panic instead of solving (false = solve normally).
type SolveAction struct {
	Stall time.Duration
	Panic bool
}

// Solve takes the next decision for a solve of the named instance. Nil
// receivers decide "no fault", so callers can thread an optional
// injector without guarding.
func (in *Injector) Solve(instance string) SolveAction {
	if in == nil {
		return SolveAction{}
	}
	n := in.solves.Add(1) - 1
	var act SolveAction
	if e := int64(in.cfg.StallEvery); e > 0 && n%e == in.stallPhase {
		act.Stall = in.cfg.Stall
		in.stalls.Add(1)
	}
	if e := int64(in.cfg.PanicEvery); e > 0 && n%e == in.panicPhase {
		if in.cfg.PanicTarget == "" || in.cfg.PanicTarget == instance {
			act.Panic = true
			in.panics.Add(1)
		}
	}
	return act
}

// Stats snapshots the fired-fault counters.
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	return Stats{
		Solves: in.solves.Load(),
		Stalls: in.stalls.Load(),
		Panics: in.panics.Load(),
	}
}

// CancelDelays builds the deterministic schedule a cancel storm replays:
// n delays spread over [min, max), a pure function of seed. Client i
// cancels its request's context after delay i; the spread staggers
// cancellations across the queue-wait, mid-solve, and post-solve windows.
func CancelDelays(seed int64, n int, min, max time.Duration) []time.Duration {
	if seed == 0 {
		seed = 1
	}
	if max <= min {
		max = min + 1
	}
	out := make([]time.Duration, n)
	span := uint64(max - min)
	for i := range out {
		out[i] = min + time.Duration(mix(seed, uint64(i))%span)
	}
	return out
}

// mix is SplitMix64 over (seed, site) — the shared derivation behind all
// chaos decisions.
func mix(seed int64, site uint64) uint64 {
	z := uint64(seed) + (site+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
