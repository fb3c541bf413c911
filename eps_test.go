package steinerforest_test

import (
	"testing"

	steinerforest "steinerforest"
)

// TestParseEps pins the strict epsilon grammar: exactly num/den, both
// positive plain integers, nothing else. The bad cases are the exact
// inputs the old fmt.Sscanf parser accepted silently ("1/2junk",
// "3/4/5") or deferred to a late solver error ("1/0", "-1/2").
func TestParseEps(t *testing.T) {
	good := []struct {
		in       string
		num, den int64
	}{
		{"1/2", 1, 2},
		{"1/4", 1, 4},
		{"2/1", 2, 1},
		{"10/3", 10, 3},
	}
	for _, c := range good {
		num, den, err := steinerforest.ParseEps(c.in)
		if err != nil || num != c.num || den != c.den {
			t.Errorf("ParseEps(%q) = %d, %d, %v; want %d, %d, nil", c.in, num, den, err, c.num, c.den)
		}
	}
	bad := []string{
		"", "1", "/", "1/", "/2", "1/2junk", "junk1/2", "3/4/5",
		"1/0", "0/2", "-1/2", "1/-2", "-1/-2", " 1/2", "1/2 ", "1 / 2",
		"0x1/2", "1.5/2", "+1/2",
	}
	for _, in := range bad {
		if _, _, err := steinerforest.ParseEps(in); err == nil {
			t.Errorf("ParseEps(%q) accepted; want error", in)
		}
	}
}

// TestSpecValidate pins the entry-point validation: negative resource
// knobs and half-set epsilons must fail with precise errors instead of
// being silently treated as defaults (or surfacing later as a confusing
// solver error), while every previously-valid Spec stays valid.
func TestSpecValidate(t *testing.T) {
	valid := []steinerforest.Spec{
		{},
		{Algorithm: "rounded", EpsNum: 1, EpsDen: 2},
		{Algorithm: "det", EpsNum: 2, EpsDen: 1}, // eps set on a non-rounded solver is fine
		{Bandwidth: 512, MaxRounds: 100000, Seed: -3},
	}
	for i, spec := range valid {
		if err := spec.Validate(); err != nil {
			t.Errorf("valid spec %d rejected: %v", i, err)
		}
	}
	invalid := []steinerforest.Spec{
		{Bandwidth: -64},
		{MaxRounds: -5},
		{EpsNum: 0, EpsDen: 2},  // the half-set epsilon of the bug report
		{EpsNum: 1, EpsDen: 0},  // other half
		{EpsNum: -1, EpsDen: 2}, // negative
		{EpsNum: 1, EpsDen: -2},
	}
	for i, spec := range invalid {
		if err := spec.Validate(); err == nil {
			t.Errorf("invalid spec %d (%+v) accepted", i, spec)
		}
	}
}

// TestSolveRejectsInvalidSpec checks that Solve itself refuses a bad Spec
// before touching the solver — a half-set epsilon used to fall through to
// "detforest: invalid epsilon 0/2" from deep inside the rounded solver.
func TestSolveRejectsInvalidSpec(t *testing.T) {
	g := steinerforest.NewGraph(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	ins := steinerforest.NewInstance(g)
	ins.SetComponent(0, 0, 3)
	for _, spec := range []steinerforest.Spec{
		{Algorithm: "rounded", EpsDen: 2},
		{Algorithm: "det", Bandwidth: -1},
		{Algorithm: "det", MaxRounds: -1},
	} {
		if _, err := steinerforest.Solve(ins, spec); err == nil {
			t.Errorf("Solve accepted invalid spec %+v", spec)
		}
	}
}
