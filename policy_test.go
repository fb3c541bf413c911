package steinerforest

import (
	"reflect"
	"strings"
	"testing"
)

// TestPolicyRegistry pins the registry surface: the built-in names, the
// shared flag parser's forms, and unknown-name errors listing the valid
// options (what every cmd hands back to the user).
func TestPolicyRegistry(t *testing.T) {
	if got, want := Policies(), []string{"every-k", "full", "repair"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Policies() = %v, want %v", got, want)
	}
	cases := []struct {
		in   string
		name string
	}{
		{"full", "full"},
		{"repair", "repair"},
		{"every-k:4", "every-k:4"},
		{"every-k:1", "every-k:1"},
	}
	for _, tc := range cases {
		p, err := ParsePolicy(tc.in)
		if err != nil {
			t.Errorf("ParsePolicy(%q): %v", tc.in, err)
			continue
		}
		if p.Name() != tc.name {
			t.Errorf("ParsePolicy(%q).Name() = %q, want %q", tc.in, p.Name(), tc.name)
		}
	}
	bad := []struct {
		in   string
		want string
	}{
		{"nope", "unknown policy"},
		{"", "unknown policy"},
		{"every-k", "needs a batch size"},
		{"every-k:0", "bad batch size"},
		{"every-k:x", "bad batch size"},
		{"full:3", "takes no argument"},
		{"repair:1", "takes no argument"},
	}
	for _, tc := range bad {
		_, err := ParsePolicy(tc.in)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParsePolicy(%q): got %v, want error containing %q", tc.in, err, tc.want)
		}
	}
	// Unknown-name errors must list the registered options.
	if _, err := ParsePolicy("nope"); err == nil || !strings.Contains(err.Error(), "every-k full repair") {
		_, err := ParsePolicy("nope")
		if err == nil || !strings.Contains(err.Error(), "full") || !strings.Contains(err.Error(), "repair") {
			t.Errorf("unknown-policy error does not list options: %v", err)
		}
	}
	if !strings.Contains(PolicyUsage(), "every-k") || !strings.Contains(PolicyUsage(), "full") {
		t.Errorf("PolicyUsage() = %q", PolicyUsage())
	}
}
