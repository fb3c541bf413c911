package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"steinerforest/internal/workload"
)

// endlessBody is a request body that never ends: prefix, then unit
// repeated forever. It costs no memory on the sending side.
type endlessBody struct {
	prefix, unit string
	off          int
}

func (b *endlessBody) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		if b.off < len(b.prefix) {
			c := copy(p[n:], b.prefix[b.off:])
			n += c
			b.off += c
			continue
		}
		u := (b.off - len(b.prefix)) % len(b.unit)
		c := copy(p[n:], b.unit[u:])
		n += c
		b.off += c
	}
	return n, nil
}

// TestOversizedBodyAnswers413: every route that decodes a JSON body
// refuses, unread, a body whose declared length is over maxBodyBytes,
// with 413 and the payload_too_large envelope code.
func TestOversizedBodyAnswers413(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	h := srv.Handler()
	for _, c := range []struct {
		route, prefix, unit string
	}{
		{"/v1/instances/path/solve", `{"instance":"path","algorithm":"`, "a"},
		{"/v1/instances/path/demands", `{"events":[`, `{"op":"add","u":0,"v":1},`},
		{"/v1/instances", `{"family":"gnp","name":"`, "x"},
	} {
		body := &endlessBody{prefix: c.prefix, unit: c.unit}
		req := httptest.NewRequest(http.MethodPost, c.route, body)
		req.ContentLength = maxBodyBytes + 1
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413 (body %s)", c.route, rec.Code, rec.Body.Bytes())
			continue
		}
		if det := decodeEnvelope(t, rec.Body.Bytes()); det.Code != codeTooLarge {
			t.Errorf("%s: code %q, want %q", c.route, det.Code, codeTooLarge)
		}
		if body.off != 0 {
			t.Errorf("%s: read %d bytes of a body declared over the cap", c.route, body.off)
		}
	}
	// The refusals left the server intact: a normal solve still succeeds.
	req := httptest.NewRequest(http.MethodPost, "/v1/instances/path/solve", strings.NewReader(`{"nocert":true}`))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Errorf("solve after oversized bodies: status %d (body %s)", rec.Code, rec.Body.Bytes())
	}
}

// TestDecodeBodyCutsStreamedBody: a body streamed without a declared
// length is read up to the limit and no further, then answered 413; one
// inside the limit decodes. A small limit keeps the decoder's buffer
// small — the routes pass maxBodyBytes.
func TestDecodeBodyCutsStreamedBody(t *testing.T) {
	const limit = 4 << 10
	body := &endlessBody{prefix: `{"events":[`, unit: `{"op":"add","u":0,"v":1},`}
	rec := httptest.NewRecorder()
	var req DemandUpdateRequest
	if decodeBody(rec, httptest.NewRequest(http.MethodPost, "/", body), &req, limit) {
		t.Fatal("an endless body decoded")
	}
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413 (body %s)", rec.Code, rec.Body.Bytes())
	}
	if det := decodeEnvelope(t, rec.Body.Bytes()); det.Code != codeTooLarge {
		t.Errorf("code %q, want %q", det.Code, codeTooLarge)
	}
	if body.off > 2*limit {
		t.Errorf("read %d bytes past a %d-byte limit", body.off, limit)
	}

	ok := `{"events":[` + strings.Repeat(`{"op":"add","u":0,"v":1},`, 100) + `{"op":"add","u":0,"v":1}]}`
	r := httptest.NewRequest(http.MethodPost, "/", io.NopCloser(strings.NewReader(ok)))
	if !decodeBody(httptest.NewRecorder(), r, &req, limit) || len(req.Events) != 101 {
		t.Errorf("a %d-byte streamed body under the limit did not decode (%d events)", len(ok), len(req.Events))
	}
}

// TestBodyCapFitsMaxEvents: the cap admits a compact demand update of
// workload.MaxEvents events at the widest node ids, plus every knob.
func TestBodyCapFitsMaxEvents(t *testing.T) {
	widest := workload.MaxNodes - 1
	ev, err := json.Marshal(DemandEvent{Op: "remove", U: widest, V: widest})
	if err != nil {
		t.Fatal(err)
	}
	knobs, err := json.Marshal(DemandUpdateRequest{Algorithm: "rounded", Eps: "1/2", Seed: math.MaxInt64})
	if err != nil {
		t.Fatal(err)
	}
	if size := len(knobs) + workload.MaxEvents*(len(ev)+1); size > maxBodyBytes {
		t.Fatalf("a %d-event update is %d bytes, over the %d-byte cap", workload.MaxEvents, size, maxBodyBytes)
	}
}

// TestGenerateRejectsOversizedN: POST /v1/instances naming more nodes
// than workload.MaxNodes is a 400 bad_request, refused before any
// allocation.
func TestGenerateRejectsOversizedN(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/instances", "application/json",
		bytes.NewReader([]byte(`{"family":"grid2d","n":2000000000}`)))
	if err != nil {
		t.Fatalf("POST /v1/instances: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 (body %s)", resp.StatusCode, body)
	}
	if det := decodeEnvelope(t, body); det.Code != codeBadRequest {
		t.Errorf("code %q, want %q", det.Code, codeBadRequest)
	}
}
