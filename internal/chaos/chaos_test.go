package chaos

import (
	"reflect"
	"testing"
	"time"
)

// TestNilInjectorIsNoFault pins the production configuration: a nil
// *Injector decides "no fault" everywhere without guarding.
func TestNilInjectorIsNoFault(t *testing.T) {
	var in *Injector
	if act := in.Solve("x"); act.Stall != 0 || act.Panic {
		t.Errorf("nil injector decided %+v, want no fault", act)
	}
	if st := in.Stats(); st != (Stats{}) {
		t.Errorf("nil injector stats = %+v, want zero", st)
	}
}

// TestSolveDecisionsDeterministic pins reproducibility: two injectors
// with the same config take identical decision sequences, and a
// different seed shifts the phase (so distinct storms hit distinct
// solves) without changing the cadence.
func TestSolveDecisionsDeterministic(t *testing.T) {
	cfg := Config{Seed: 7, StallEvery: 3, Stall: time.Millisecond, PanicEvery: 4}
	a, b := New(cfg), New(cfg)
	const n = 48
	var seqA, seqB []SolveAction
	for i := 0; i < n; i++ {
		seqA = append(seqA, a.Solve("ins"))
		seqB = append(seqB, b.Solve("ins"))
	}
	if !reflect.DeepEqual(seqA, seqB) {
		t.Fatal("same config, different decision sequences")
	}
	stalls, panics := 0, 0
	for _, act := range seqA {
		if act.Stall > 0 {
			stalls++
		}
		if act.Panic {
			panics++
		}
	}
	if stalls != n/cfg.StallEvery || panics != n/cfg.PanicEvery {
		t.Errorf("cadence: %d stalls, %d panics over %d solves, want %d and %d",
			stalls, panics, n, n/cfg.StallEvery, n/cfg.PanicEvery)
	}
	st := a.Stats()
	if st.Solves != n || st.Stalls != int64(stalls) || st.Panics != int64(panics) {
		t.Errorf("stats = %+v, want solves=%d stalls=%d panics=%d", st, n, stalls, panics)
	}
}

// TestPanicTargetFilters pins the quarantine harness's poisoning: with
// PanicTarget set, only solves of that instance panic.
func TestPanicTargetFilters(t *testing.T) {
	in := New(Config{Seed: 3, PanicEvery: 1, PanicTarget: "poisoned"})
	for i := 0; i < 8; i++ {
		name := "healthy"
		if i%2 == 0 {
			name = "poisoned"
		}
		act := in.Solve(name)
		if act.Panic != (name == "poisoned") {
			t.Fatalf("solve %d (%s): panic=%v", i, name, act.Panic)
		}
	}
	if st := in.Stats(); st.Panics != 4 {
		t.Errorf("panics fired = %d, want 4", st.Panics)
	}
}

// TestCancelDelaysDeterministicAndBounded pins the storm schedule: a
// pure function of seed, every delay inside [min, max), and different
// seeds giving different schedules.
func TestCancelDelaysDeterministicAndBounded(t *testing.T) {
	min, max := 200*time.Microsecond, 3*time.Millisecond
	a := CancelDelays(11, 64, min, max)
	b := CancelDelays(11, 64, min, max)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different schedules")
	}
	for i, d := range a {
		if d < min || d >= max {
			t.Fatalf("delay %d = %v outside [%v, %v)", i, d, min, max)
		}
	}
	if reflect.DeepEqual(a, CancelDelays(12, 64, min, max)) {
		t.Error("seeds 11 and 12 produced identical schedules")
	}
}
