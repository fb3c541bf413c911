package serve

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	steinerforest "steinerforest"
)

// FuzzSolveRequest drives the solve-request decoder the way the solve
// route does — JSON body → SolveRequest → Spec — on arbitrary bytes. It
// must never panic, and a request it accepts must carry a valid Spec of a
// known algorithm whose canonical form is a fixed point, since that form
// is the result-cache key.
func FuzzSolveRequest(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"algorithm":"rounded","eps":"1/4","seed":9}`))
	f.Add([]byte(`{"algorithm":"rand","bandwidth":512,"max_rounds":100000,"nocert":true}`))
	f.Add([]byte(`{"instance":"g","algorithm":"central","seed":-3}`))
	f.Add([]byte(`{"algorithm":"no-such-solver"}`))
	f.Add([]byte(`{"algorithm":"det","eps":"0/2"}`))
	f.Add([]byte(`{"eps":"banana","bandwidth":-1}`))
	f.Add([]byte(`{"seed":1e99}`))
	f.Add([]byte(`[`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var req SolveRequest
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&req); err != nil {
			return
		}
		spec, err := req.Spec()
		if err != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("Spec() returned a spec Validate rejects: %+v: %v", spec, err)
		}
		canon := spec.Canonical()
		if again := canon.Canonical(); again != canon {
			t.Fatalf("Canonical not idempotent: %+v -> %+v", canon, again)
		}
		if !slices.Contains(steinerforest.Algorithms(), canon.Algorithm) {
			t.Fatalf("accepted unknown algorithm %q", canon.Algorithm)
		}
	})
}
