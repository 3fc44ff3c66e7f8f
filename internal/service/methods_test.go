package service

import (
	"encoding/json"
	"net/http"
	"testing"
)

// TestWrongMethodsUniform405 sweeps every route with methods it does not
// serve and asserts the uniform contract: 405, an Allow header listing the
// methods that would work, and the versioned error envelope with code
// method_not_allowed.
func TestWrongMethodsUniform405(t *testing.T) {
	s := newTestServer(t, Config{})
	routes := []struct {
		path  string
		allow string
	}{
		{"/healthz", "GET"},
		{"/metrics", "GET"},
		{"/v1/map", "POST"},
		{"/v1/map/batch", "POST"},
		{"/v1/devices", "GET, POST"},
		{"/v1/devices/tokyo/calibration", "GET, POST, PUT"},
		{"/v1/stats", "GET"},
	}
	probes := []string{
		http.MethodGet, http.MethodPost, http.MethodPut,
		http.MethodDelete, http.MethodPatch, http.MethodHead,
	}
	for _, rt := range routes {
		allowed := map[string]bool{}
		for _, m := range splitAllow(rt.allow) {
			allowed[m] = true
		}
		for _, m := range probes {
			if allowed[m] {
				continue
			}
			w := do(t, s, m, rt.path, nil)
			if w.Code != http.StatusMethodNotAllowed {
				t.Errorf("%s %s: status = %d, want 405", m, rt.path, w.Code)
				continue
			}
			if got := w.Header().Get("Allow"); got != rt.allow {
				t.Errorf("%s %s: Allow = %q, want %q", m, rt.path, got, rt.allow)
			}
			// HEAD responses legitimately carry no body; every other
			// method must get the envelope.
			if m == http.MethodHead {
				continue
			}
			var env ErrorEnvelope
			if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
				t.Errorf("%s %s: body %q is not an error envelope", m, rt.path, w.Body.String())
				continue
			}
			if env.Error.Code != "method_not_allowed" {
				t.Errorf("%s %s: code = %q, want method_not_allowed", m, rt.path, env.Error.Code)
			}
			if env.Error.RequestID == "" {
				t.Errorf("%s %s: envelope missing request_id", m, rt.path)
			}
		}
	}
}

// TestUnknownPathsNotFoundEnvelope: a path no route claims answers 404
// with the not_found envelope, as docs/API.md promises, not the mux's
// plain-text page.
func TestUnknownPathsNotFoundEnvelope(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, c := range []struct{ method, path string }{
		{http.MethodGet, "/"},
		{http.MethodPost, "/v2/map"},
		{http.MethodPost, "/v1/mapx"},
		{http.MethodGet, "/healthz/x"},
		{http.MethodGet, "/v1"},
	} {
		w := do(t, s, c.method, c.path, nil)
		var env ErrorEnvelope
		if err := json.Unmarshal(w.Body.Bytes(), &env); w.Code != http.StatusNotFound || err != nil ||
			env.Error.Code != "not_found" || env.Error.RequestID == "" {
			t.Errorf("%s %s: %d %q, want 404 and a not_found envelope", c.method, c.path, w.Code, w.Body.String())
		}
	}
}

func splitAllow(allow string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(allow); i++ {
		if i == len(allow) || allow[i] == ',' {
			m := allow[start:i]
			for len(m) > 0 && m[0] == ' ' {
				m = m[1:]
			}
			if m != "" {
				out = append(out, m)
			}
			start = i + 1
		}
	}
	return out
}
