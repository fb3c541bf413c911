package main

import (
	"strings"
	"testing"
)

// TestValidatePairCount pins the 2k <= n check that replaced the legacy
// generator's silent clamp (it used to quietly solve a smaller instance
// when the permutation ran out of nodes).
func TestValidatePairCount(t *testing.T) {
	cases := []struct {
		n, k int
		ok   bool
	}{
		{40, 3, true},
		{6, 3, true},   // 2k == n: exactly fits
		{2, 1, true},   // smallest valid instance
		{10, 6, false}, // 2k > n: the old silent-clamp case
		{5, 3, false},
		{40, 0, false}, // no components
		{40, -1, false},
	}
	for _, c := range cases {
		err := validatePairCount(c.n, c.k)
		if (err == nil) != c.ok {
			t.Errorf("validatePairCount(n=%d, k=%d) = %v, want ok=%v", c.n, c.k, err, c.ok)
		}
	}
}

// TestSpecFromFlags pins the flag-time validation: an unknown -algo or a
// bad -eps is an error before any instance exists, so dsfrun exits 2
// without printing a component line or writing -out.
func TestSpecFromFlags(t *testing.T) {
	cases := []struct {
		algo, eps string
		err       string // substring of the error; "" for a valid spec
	}{
		{"det", "1/2", ""},
		{"rounded", "3/4", ""},
		{"bogus", "1/2", `unknown algorithm "bogus"`},
		{"det", "banana", `bad -eps "banana"`},
		{"rounded", "0/1", `bad -eps "0/1"`},
	}
	for _, c := range cases {
		spec, err := specFromFlags(c.algo, 7, true, c.eps)
		switch {
		case c.err == "" && err != nil:
			t.Errorf("-algo %s -eps %s: %v", c.algo, c.eps, err)
		case c.err == "" && (spec.Algorithm != c.algo || spec.Seed != 7 || !spec.NoCertificate):
			t.Errorf("-algo %s -eps %s: spec %+v", c.algo, c.eps, spec)
		case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
			t.Errorf("-algo %s -eps %s: err = %v, want %q", c.algo, c.eps, err, c.err)
		}
	}
}
