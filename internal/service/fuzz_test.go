package service

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"testing"

	"codar/api"
	"codar/internal/arch"
	"codar/internal/calib"
)

// twoQubitQASM is the circuit an accepted fuzzed device must map.
const twoQubitQASM = `OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
h q[0];
cx q[0],q[1];
`

// mustJSON marshals a fuzz seed.
func mustJSON(v interface{}) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// checkEnvelope fails t unless w is a non-5xx answer and, when it is an
// error, carries the versioned envelope with a code.
func checkEnvelope(t *testing.T, what string, w *httptest.ResponseRecorder) {
	t.Helper()
	if w.Code >= http.StatusInternalServerError {
		t.Fatalf("%s: %d %s", what, w.Code, w.Body)
	}
	if w.Code < http.StatusBadRequest {
		return
	}
	var env api.ErrorEnvelope
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || env.Error.Code == "" {
		t.Fatalf("%s: %d with body %q, want an error envelope", what, w.Code, w.Body)
	}
}

// FuzzServeHTTP sends arbitrary method, path, X-Codard-Timeout and body
// combinations through codard's whole handler stack, one server for the
// whole run. No answer may be a 5xx, except the documented 504 deadline
// for a request that set its own timeout, and every error but a HEAD's
// must carry the envelope with a code.
//
// CI runs this with -fuzztime 30s; locally:
//
//	go test -run FuzzServeHTTP -fuzz FuzzServeHTTP -fuzztime 30s ./internal/service/
func FuzzServeHTTP(f *testing.F) {
	s := New(Config{Workers: 1, ErrorLog: log.New(io.Discard, "", 0)})
	mapBody := mustJSON(MapRequest{QASM: ghzQASM, Arch: "tokyo"})
	q5Calib, err := calib.Synthetic(arch.IBMQ5(), 1).Encode()
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []struct {
		method, path, timeout string
		body                  []byte
	}{
		{"GET", "/healthz", "", nil},
		{"GET", "/metrics", "", nil},
		{"GET", "/v1/stats", "", nil},
		{"GET", "/v1/devices", "", nil},
		{"POST", "/v1/map", "", mapBody},
		{"POST", "/v1/map?stream=1", "30s", mapBody},
		{"POST", "/v1/map", "1ns", mapBody},
		{"POST", "/v1/map", "soon", mapBody},
		{"POST", "/v1/map/batch", "", mustJSON(BatchRequest{Requests: []MapRequest{{QASM: ghzQASM, Arch: "q5"}, {Arch: "nowhere"}}})},
		{"POST", "/v1/jobs", "", mustJSON(MapRequest{QASM: twoQubitQASM, Arch: "linear3", Portfolio: &PortfolioSpec{}})},
		{"GET", "/v1/jobs/0123456789abcdef/result", "", nil},
		{"DELETE", "/v1/jobs/0123456789abcdef", "", nil},
		{"POST", "/v1/devices", "", []byte(`{"name":"line3","qubits":3,"edges":[[0,1],[1,2]]}`)},
		{"PUT", "/v1/devices/q5/calibration", "", q5Calib},
		{"GET", "/v1/devices/tokyo/calibration", "", nil},
		{"GET", "/", "", nil},
		{"HEAD", "/v2/map", "", nil},
		{"PATCH", "/v1/map", "", []byte(`{"qasm":`)},
	} {
		f.Add(seed.method, seed.path, seed.timeout, seed.body)
	}
	f.Fuzz(func(t *testing.T, method, path, timeout string, body []byte) {
		req, err := http.NewRequest(method, "http://codard"+path, bytes.NewReader(body))
		if err != nil {
			return
		}
		if timeout != "" {
			req.Header.Set(timeoutHeader, timeout)
		}
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		what := method + " " + path + " (timeout " + timeout + ")"
		if w.Code == http.StatusGatewayTimeout && timeout != "" {
			var env api.ErrorEnvelope
			if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || env.Error.Code != api.CodeDeadline {
				t.Fatalf("%s: 504 with body %q, want a deadline envelope", what, w.Body)
			}
			return
		}
		if method == http.MethodHead && w.Code < http.StatusInternalServerError {
			return
		}
		checkEnvelope(t, what, w)
	})
}

// FuzzDeviceSpec feeds arbitrary POST /v1/devices bodies (decode,
// buildDevice, Registry.Add) through a fresh server each, since a shared
// one would answer 409 to every upload once its custom-device store filled
// or a name repeated. A rejection must be an error envelope. An accepted
// device must then map a two-qubit circuit with no 5xx, and with a 200
// when it has two qubits or more.
//
// CI runs this with -fuzztime 30s; locally:
//
//	go test -run FuzzDeviceSpec -fuzz FuzzDeviceSpec -fuzztime 30s ./internal/service/
func FuzzDeviceSpec(f *testing.F) {
	for _, seed := range []string{
		`{"name":"line3","qubits":3,"edges":[[0,1],[1,2]]}`,
		`{"name":"ring4","qubits":4,"edges":[[0,1],[1,2],[2,3],[3,0]],"preset":"iontrap"}`,
		`{"name":"pair","qubits":2,"edges":[[0,1]],"durations":{"single":1,"two":2,"swap":6,"measure":5}}`,
		`{"name":"zero","qubits":2,"edges":[[0,1]],"durations":{"single":0,"two":-1,"swap":0,"measure":0}}`,
		`{"name":"solo","qubits":1,"edges":[]}`,
		`{"name":"split","qubits":4,"edges":[[0,1],[2,3]]}`,
		`{"name":"loop","qubits":2,"edges":[[0,0]]}`,
		`{"name":"far","qubits":2,"edges":[[0,5]]}`,
		`{"name":"huge","qubits":1025,"edges":[[0,1]]}`,
		`{"name":"tokyo","qubits":2,"edges":[[0,1]]}`,
		`{"name":"linear4","qubits":2,"edges":[[0,1]]}`,
		`{"name":"odd","qubits":2,"edges":[[0,1]],"preset":"warp"}`,
		`{"qubits":-3}`,
		`null`,
		`[]`,
	} {
		f.Add([]byte(seed))
	}
	quiet := log.New(io.Discard, "", 0)
	f.Fuzz(func(t *testing.T, body []byte) {
		s := New(Config{Workers: 1, ErrorLog: quiet})
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/devices", bytes.NewReader(body)))
		if w.Code != http.StatusCreated {
			checkEnvelope(t, "POST /v1/devices", w)
			return
		}
		var info DeviceInfo
		if err := json.Unmarshal(w.Body.Bytes(), &info); err != nil {
			t.Fatalf("201 with body %q: %v", w.Body, err)
		}
		w = httptest.NewRecorder()
		mapReq := mustJSON(MapRequest{QASM: twoQubitQASM, Arch: info.Name})
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/map", bytes.NewReader(mapReq)))
		what := "mapping onto accepted device " + string(body)
		checkEnvelope(t, what, w)
		if info.Qubits >= 2 && w.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", what, w.Code, w.Body)
		}
	})
}
