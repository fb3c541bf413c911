package steinerforest_test

import (
	"testing"

	steinerforest "steinerforest"
	"steinerforest/internal/congest"
	"steinerforest/internal/workload"
)

// TestCanonicalFoldsNeutralKnobs pins the positive half of the canonical
// key's contract: specs that differ only in defaults left implicit or in
// the result-neutral scheduler knobs must collapse to one canonical value
// (one cache slot), and canonicalization must be idempotent.
func TestCanonicalFoldsNeutralKnobs(t *testing.T) {
	base := steinerforest.Spec{Algorithm: "det", Seed: 1}
	variants := []steinerforest.Spec{
		{},                 // all defaults: "" = det, seed 0 = 1
		{Algorithm: "det"}, // explicit algorithm
		{Seed: 1},          // explicit default seed
		{Algorithm: "det", Seed: 1, NoFastPath: true},
		{Algorithm: "det", Seed: 1, EpsNum: 1, EpsDen: 2}, // det ignores eps
		{Algorithm: "det", Seed: 1, Arena: congest.NewArenaPool()},
	}
	want := base.Canonical()
	for i, v := range variants {
		if got := v.Canonical(); got != want {
			t.Errorf("variant %d (%+v): Canonical = %+v, want %+v", i, v, got, want)
		}
	}
	if c := want.Canonical(); c != want {
		t.Errorf("Canonical not idempotent: %+v -> %+v", want, c)
	}
	// The rounded solver's default epsilon is 1/2, explicit or implicit.
	r1 := steinerforest.Spec{Algorithm: "rounded"}.Canonical()
	r2 := steinerforest.Spec{Algorithm: "rounded", EpsNum: 1, EpsDen: 2}.Canonical()
	if r1 != r2 {
		t.Errorf("rounded default eps canonical %+v != explicit 1/2 canonical %+v", r1, r2)
	}
}

// TestCanonicalKeepsDistinguishing is the negative test: every
// result-determining field must survive canonicalization, or the cache
// would hand one request another request's answer. Each case pairs two
// specs whose Solve results (can) differ; their canonical values must
// differ too.
func TestCanonicalKeepsDistinguishing(t *testing.T) {
	cases := []struct {
		name string
		a, b steinerforest.Spec
	}{
		{"algorithm", steinerforest.Spec{Algorithm: "det"}, steinerforest.Spec{Algorithm: "rand"}},
		{"rand vs trunc", steinerforest.Spec{Algorithm: "rand"}, steinerforest.Spec{Algorithm: "trunc"}},
		{"seed", steinerforest.Spec{Algorithm: "rand", Seed: 1}, steinerforest.Spec{Algorithm: "rand", Seed: 2}},
		{"seed default vs 2", steinerforest.Spec{Algorithm: "rand"}, steinerforest.Spec{Algorithm: "rand", Seed: 2}},
		{"eps", steinerforest.Spec{Algorithm: "rounded", EpsNum: 1, EpsDen: 2}, steinerforest.Spec{Algorithm: "rounded", EpsNum: 1, EpsDen: 4}},
		{"eps equal ratio", steinerforest.Spec{Algorithm: "rounded", EpsNum: 1, EpsDen: 2}, steinerforest.Spec{Algorithm: "rounded", EpsNum: 2, EpsDen: 4}},
		{"bandwidth", steinerforest.Spec{}, steinerforest.Spec{Bandwidth: 4096}},
		{"max rounds", steinerforest.Spec{}, steinerforest.Spec{MaxRounds: 100}},
		{"edge tracking", steinerforest.Spec{}, steinerforest.Spec{EdgeTracking: true}},
		{"certificate", steinerforest.Spec{}, steinerforest.Spec{NoCertificate: true}},
	}
	for _, c := range cases {
		if ca, cb := c.a.Canonical(), c.b.Canonical(); ca == cb {
			t.Errorf("%s: Canonical collapsed %+v and %+v to %+v — these can differ in results", c.name, c.a, c.b, ca)
		}
	}
}

// TestCanonicalResultNeutral is the soundness property the result cache
// rests on: solving a spec and solving its canonical form must be
// bit-identical, for every algorithm over a non-trivial instance.
func TestCanonicalResultNeutral(t *testing.T) {
	gen, err := workload.Generate("planted", workload.Params{N: 40, K: 2, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	ins := gen.Instance
	specs := []steinerforest.Spec{
		{NoCertificate: true, NoFastPath: true},
		{Algorithm: "rounded", NoCertificate: true},
		{Algorithm: "rand", Seed: 5, NoCertificate: true, NoFastPath: true},
		{Algorithm: "trunc", Seed: 5, NoCertificate: true},
		{Algorithm: "khan", Seed: 3, NoCertificate: true},
		{Algorithm: "central"},
	}
	for _, spec := range specs {
		orig, err := steinerforest.Solve(ins, spec)
		if err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		canon, err := steinerforest.Solve(ins, spec.Canonical())
		if err != nil {
			t.Fatalf("canonical of %+v: %v", spec, err)
		}
		if orig.Weight != canon.Weight || orig.Certified != canon.Certified ||
			orig.LowerBound != canon.LowerBound {
			t.Errorf("%+v: canonical solve diverged: weight %d/%d cert %v/%v lb %v/%v",
				spec, orig.Weight, canon.Weight, orig.Certified, canon.Certified, orig.LowerBound, canon.LowerBound)
		}
		if (orig.Stats == nil) != (canon.Stats == nil) {
			t.Fatalf("%+v: stats presence diverged", spec)
		}
		if orig.Stats != nil && (orig.Stats.Rounds != canon.Stats.Rounds ||
			orig.Stats.Messages != canon.Stats.Messages || orig.Stats.Bits != canon.Stats.Bits) {
			t.Errorf("%+v: canonical solve stats diverged: %+v vs %+v", spec, orig.Stats, canon.Stats)
		}
		oe, ce := orig.Solution.Edges(), canon.Solution.Edges()
		if len(oe) != len(ce) {
			t.Fatalf("%+v: forest size %d != %d", spec, len(oe), len(ce))
		}
		for i := range oe {
			if oe[i] != ce[i] {
				t.Fatalf("%+v: forest differs at %d", spec, i)
			}
		}
	}
}
