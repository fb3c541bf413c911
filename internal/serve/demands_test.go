package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	steinerforest "steinerforest"
)

func postJSON(t *testing.T, url string, v any) (*http.Response, []byte) {
	t.Helper()
	body, _ := json.Marshal(v)
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, out.Bytes()
}

func decodeEnvelope(t *testing.T, body []byte) ErrorDetail {
	t.Helper()
	var env ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("response is not the error envelope: %v (body %s)", err, body)
	}
	if env.Error.Code == "" {
		t.Fatalf("error envelope has empty code (body %s)", body)
	}
	return env.Error
}

// TestDemandUpdateInvalidatesCache is the staleness pin (run under -race
// in CI): a cached forest must not survive a demand update. Solve twice
// (the second answer must come from the cache), add a pair, solve again
// with the identical request — the third answer must be a fresh solver
// run on the new cumulative demand set, bit-identical to a standalone
// Solve on it, not the cached pre-update forest.
func TestDemandUpdateInvalidatesCache(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	req := SolveRequest{Algorithm: "det", Seed: 3}

	resp1, body1 := postJSON(t, ts.URL+"/v1/instances/path/solve", req)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("solve 1: status %d (body %s)", resp1.StatusCode, body1)
	}
	var first SolveResponse
	if err := json.Unmarshal(body1, &first); err != nil {
		t.Fatalf("solve 1 decode: %v", err)
	}

	_, body2 := postJSON(t, ts.URL+"/v1/instances/path/solve", req)
	var second SolveResponse
	if err := json.Unmarshal(body2, &second); err != nil {
		t.Fatalf("solve 2 decode: %v", err)
	}
	if !second.Cached {
		t.Fatal("identical repeat solve was not served from the cache; the invalidation check below would prove nothing")
	}

	// Join two of the instance's components: labels 0 and 1 exist by
	// construction of testInstance, so any member pair across them is a
	// structural change to the cumulative instance.
	pre := srv.lookup("path")
	var u, v int
	u, v = -1, -1
	for n := 0; n < pre.ins.G.N(); n++ {
		if pre.ins.Label[n] == 0 && u < 0 {
			u = n
		}
		if pre.ins.Label[n] == 1 && v < 0 {
			v = n
		}
	}
	upd := DemandUpdateRequest{Events: []DemandEvent{{Op: "add", U: u, V: v}}, Algorithm: "det", Seed: 3}
	updResp, updBody := postJSON(t, ts.URL+"/v1/instances/path/demands", upd)
	if updResp.StatusCode != http.StatusOK {
		t.Fatalf("demand update: status %d (body %s)", updResp.StatusCode, updBody)
	}
	var ur DemandUpdateResponse
	if err := json.Unmarshal(updBody, &ur); err != nil {
		t.Fatalf("update decode: %v", err)
	}
	if !ur.Bootstrapped {
		t.Error("first update on the instance did not bootstrap a standing forest")
	}
	if ur.K != pre.info.K-1 {
		t.Errorf("post-update K = %d, want %d (the added pair joins two components)", ur.K, pre.info.K-1)
	}

	resp3, body3 := postJSON(t, ts.URL+"/v1/instances/path/solve", req)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("solve 3: status %d (body %s)", resp3.StatusCode, body3)
	}
	var third SolveResponse
	if err := json.Unmarshal(body3, &third); err != nil {
		t.Fatalf("solve 3 decode: %v", err)
	}
	if third.Cached {
		t.Fatal("post-update solve served from cache: stale forest for the old demand set")
	}
	post := srv.lookup("path")
	want, err := steinerforest.Solve(post.ins, steinerforest.Spec{Algorithm: "det", Seed: 3})
	if err != nil {
		t.Fatalf("standalone solve: %v", err)
	}
	if third.Weight != want.Weight || third.Rounds != want.Stats.Rounds || third.Messages != want.Stats.Messages {
		t.Errorf("post-update solve (w=%d r=%d m=%d) diverges from standalone Solve on the cumulative instance (w=%d r=%d m=%d)",
			third.Weight, third.Rounds, third.Messages, want.Weight, want.Stats.Rounds, want.Stats.Messages)
	}
	if third.Weight == first.Weight && third.Rounds == first.Rounds && want.Weight != first.Weight {
		t.Error("post-update solve equals the pre-update answer; cache was not invalidated")
	}

	if st := srv.Statsz(); st.DemandUpdates != 1 || st.DemandEvents != 1 {
		t.Errorf("demand counters = (%d updates, %d events), want (1, 1)", st.DemandUpdates, st.DemandEvents)
	}
}

// TestDemandUpdateAtomicity pins all-or-nothing application: an update
// whose second event is invalid (removing an inactive pair) must change
// nothing — 400 with the bad_request code, same pair count, and a
// subsequent solve identical to the pre-update answer.
func TestDemandUpdateAtomicity(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	pre := srv.lookup("path")
	prePairs := pre.info.Pairs

	var u int
	for n := 0; n < pre.ins.G.N(); n++ {
		if pre.ins.Label[n] == 0 {
			u = n
			break
		}
	}
	// Event 0 is valid; event 1 removes a pair that was never active.
	upd := DemandUpdateRequest{Events: []DemandEvent{
		{Op: "add", U: u, V: (u + 1) % pre.ins.G.N()},
		{Op: "remove", U: 0, V: 0},
	}}
	resp, body := postJSON(t, ts.URL+"/v1/instances/path/demands", upd)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad update: status %d, want 400 (body %s)", resp.StatusCode, body)
	}
	if det := decodeEnvelope(t, body); det.Code != codeBadRequest {
		t.Errorf("bad update code = %q, want %q", det.Code, codeBadRequest)
	}

	post := srv.lookup("path")
	if post != pre {
		t.Error("entry was swapped despite the rejected update")
	}
	if post.info.Pairs != prePairs || post.events != 0 || post.standing != nil {
		t.Errorf("rejected update mutated state: pairs=%d events=%d standing=%v", post.info.Pairs, post.events, post.standing)
	}
	if st := srv.Statsz(); st.DemandUpdates != 0 {
		t.Errorf("rejected update counted as applied (%d)", st.DemandUpdates)
	}
}

// TestDemandUpdateValidation pins the request-side status codes and
// envelope codes for the demands route.
func TestDemandUpdateValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	cases := []struct {
		name     string
		url      string
		body     any
		want     int
		wantCode string
	}{
		{"no events", "/v1/instances/path/demands", DemandUpdateRequest{}, http.StatusBadRequest, codeBadRequest},
		{"bad op", "/v1/instances/path/demands",
			DemandUpdateRequest{Events: []DemandEvent{{Op: "toggle", U: 0, V: 1}}}, http.StatusBadRequest, codeBadRequest},
		{"unknown instance", "/v1/instances/nope/demands",
			DemandUpdateRequest{Events: []DemandEvent{{Op: "add", U: 0, V: 1}}}, http.StatusNotFound, codeNotFound},
		{"bad eps", "/v1/instances/path/demands",
			DemandUpdateRequest{Events: []DemandEvent{{Op: "add", U: 0, V: 1}}, Eps: "x/y"}, http.StatusBadRequest, codeBadRequest},
		{"out-of-range node", "/v1/instances/path/demands",
			DemandUpdateRequest{Events: []DemandEvent{{Op: "add", U: 0, V: 9999}}}, http.StatusBadRequest, codeBadRequest},
	}
	for _, c := range cases {
		resp, body := postJSON(t, ts.URL+c.url, c.body)
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d (body %s)", c.name, resp.StatusCode, c.want, body)
			continue
		}
		if det := decodeEnvelope(t, body); det.Code != c.wantCode {
			t.Errorf("%s: code %q, want %q", c.name, det.Code, c.wantCode)
		}
	}
}

// TestV1RoutingEquivalence pins the versioned API surface: every v1
// route answers, a body naming the path's own instance gets the same
// answer as one naming none, the scoped solve rejects a body that names a
// different instance, and the retired unversioned paths answer 404.
func TestV1RoutingEquivalence(t *testing.T) {
	srv, ts := newTestServer(t, Config{})

	// A body naming the path's instance is the same request as one naming
	// none: same spec, same answer.
	req := SolveRequest{Algorithm: "det", Seed: 11, NoCert: true}
	named := req
	named.Instance = "path"
	var answers [2]SolveResponse
	for i, r := range []SolveRequest{req, named} {
		resp, body := postJSON(t, ts.URL+"/v1/instances/path/solve", r)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("scoped solve %d: status %d (body %s)", i, resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &answers[i]); err != nil {
			t.Fatalf("scoped solve %d decode: %v (body %s)", i, err, body)
		}
	}
	if a, b := answers[0], answers[1]; a.Weight != b.Weight || a.Rounds != b.Rounds || a.Messages != b.Messages {
		t.Errorf("unnamed (w=%d r=%d) and named (w=%d r=%d) answers diverge for the same request",
			a.Weight, a.Rounds, b.Weight, b.Rounds)
	}

	// Body naming a different instance than the path: refused, not overridden.
	mismatch := req
	mismatch.Instance = "other"
	resp, body := postJSON(t, ts.URL+"/v1/instances/path/solve", mismatch)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("path/body mismatch: status %d, want 400 (body %s)", resp.StatusCode, body)
	} else if det := decodeEnvelope(t, body); det.Code != codeBadRequest {
		t.Errorf("path/body mismatch code = %q, want %q", det.Code, codeBadRequest)
	}

	// An unknown instance is a 404 in the envelope.
	resp, body = postJSON(t, ts.URL+"/v1/instances/ghost/solve", SolveRequest{NoCert: true})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown instance: status %d, want 404 (body %s)", resp.StatusCode, body)
	} else if det := decodeEnvelope(t, body); det.Code != codeNotFound {
		t.Errorf("unknown instance code = %q, want %q", det.Code, codeNotFound)
	}

	for _, p := range []string{"/v1/instances", "/v1/healthz", "/v1/statsz"} {
		r, err := http.Get(ts.URL + p)
		if err != nil {
			t.Fatalf("GET %s: %v", p, err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d, want 200", p, r.StatusCode)
		}
	}

	// The unversioned aliases are gone.
	for _, route := range []struct{ method, path string }{
		{http.MethodPost, "/solve"},
		{http.MethodGet, "/instances"},
		{http.MethodPost, "/instances"},
		{http.MethodGet, "/healthz"},
		{http.MethodGet, "/statsz"},
	} {
		hreq, _ := http.NewRequest(route.method, ts.URL+route.path,
			bytes.NewReader([]byte(`{"instance":"path","nocert":true}`)))
		r, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatalf("%s %s: %v", route.method, route.path, err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404", route.method, route.path, r.StatusCode)
		}
	}

	// POST /v1/instances generates and registers.
	gen := GenerateRequest{Family: "gnp", N: 40, K: 2, MaxW: 16, Seed: 9}
	genResp, genBody := postJSON(t, ts.URL+"/v1/instances", gen)
	if genResp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /v1/instances: status %d (body %s)", genResp.StatusCode, genBody)
	}
	var info InstanceInfo
	if err := json.Unmarshal(genBody, &info); err != nil {
		t.Fatalf("generate decode: %v", err)
	}
	if srv.lookup(info.Name) == nil {
		t.Errorf("generated instance %q not resident", info.Name)
	}
}

// TestDemandUpdateSerializedWithSolves pins queue-order serialization:
// updates ride the same admission queue as solves, so a solve admitted
// after an update observes the post-update instance.
func TestDemandUpdateSerializedWithSolves(t *testing.T) {
	srv, ts := newTestServer(t, Config{Policy: "repair"})
	pre := srv.lookup("path")
	var u, v int
	u, v = -1, -1
	for n := 0; n < pre.ins.G.N(); n++ {
		if pre.ins.Label[n] == 0 && u < 0 {
			u = n
		}
		if pre.ins.Label[n] == 1 && v < 0 {
			v = n
		}
	}
	upd := DemandUpdateRequest{Events: []DemandEvent{{Op: "add", U: u, V: v}}}
	if resp, body := postJSON(t, ts.URL+"/v1/instances/path/demands", upd); resp.StatusCode != http.StatusOK {
		t.Fatalf("repair-policy update: status %d (body %s)", resp.StatusCode, body)
	}

	_, body := postJSON(t, ts.URL+"/v1/instances/path/solve", SolveRequest{Algorithm: "det", Seed: 1, NoCert: true})
	var got SolveResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("solve decode: %v (body %s)", err, body)
	}
	post := srv.lookup("path")
	want, err := steinerforest.Solve(post.ins, steinerforest.Spec{Algorithm: "det", Seed: 1, NoCertificate: true})
	if err != nil {
		t.Fatalf("standalone solve: %v", err)
	}
	if got.Weight != want.Weight {
		t.Errorf("solve after update: weight %d, want %d (post-update instance)", got.Weight, want.Weight)
	}
	if post.standing == nil {
		t.Error("repair policy left no standing forest")
	}
	if post.events != 1 || post.info.Events != 1 {
		t.Errorf("event counter = (%d, %d), want (1, 1)", post.events, post.info.Events)
	}
}
