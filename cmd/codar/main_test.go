package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"codar/api"
	"codar/internal/arch"
	"codar/internal/circuit"
	"codar/internal/core"
	"codar/internal/qasm"
	"codar/internal/sabre"
	"codar/internal/service"
	"codar/internal/workloads"
)

func TestParseFlagsDefaults(t *testing.T) {
	var stderr bytes.Buffer
	cfg, err := parseFlags(nil, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.archName != "tokyo" || cfg.algo != "codar" || !cfg.stats || cfg.portfolioMode {
		t.Errorf("unexpected defaults: %+v", cfg)
	}
	if len(cfg.seeds) != 2 || cfg.seeds[0] != 1 || cfg.seeds[1] != 2 {
		t.Errorf("default seeds %v", cfg.seeds)
	}
	if string(cfg.objective) != "min-depth" {
		t.Errorf("default objective %q", cfg.objective)
	}
	if stderr.Len() != 0 {
		t.Errorf("defaults wrote to stderr: %q", stderr.String())
	}
}

func TestParseFlagsPortfolio(t *testing.T) {
	var stderr bytes.Buffer
	cfg, err := parseFlags([]string{"-portfolio", "-seeds", "3, 5,8", "-objective", "min-swaps", "-workers", "2"}, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.portfolioMode || cfg.workers != 2 {
		t.Errorf("portfolio flags not parsed: %+v", cfg)
	}
	if len(cfg.seeds) != 3 || cfg.seeds[0] != 3 || cfg.seeds[1] != 5 || cfg.seeds[2] != 8 {
		t.Errorf("seeds %v", cfg.seeds)
	}
	if string(cfg.objective) != "min-swaps" {
		t.Errorf("objective %q", cfg.objective)
	}
}

// TestRunStreamMatchesBatch drives the full -stream pipeline (file →
// incremental parse → streaming remap → incremental write) and pins the
// output file against the batch engine under the same trivial layout, for
// both algorithms.
func TestRunStreamMatchesBatch(t *testing.T) {
	dir := t.TempDir()
	src := workloads.Random(16, 3000, 45, 5)
	in := filepath.Join(dir, "in.qasm")
	if err := os.WriteFile(in, []byte(qasm.Write(src)), 0o644); err != nil {
		t.Fatal(err)
	}
	dev, err := arch.ByName("tokyo")
	if err != nil {
		t.Fatal(err)
	}
	dev.Durations = arch.SuperconductingDurations()
	parsed, err := qasm.Parse(qasm.Write(src))
	if err != nil {
		t.Fatal(err)
	}
	lowered := circuit.Decompose(parsed)

	for _, algo := range []string{"codar", "sabre"} {
		var want []circuit.Gate
		switch algo {
		case "codar":
			res, err := core.Remap(lowered, dev, nil, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			want = res.Circuit.Gates
		case "sabre":
			res, err := sabre.Remap(lowered, dev, nil, sabre.Options{})
			if err != nil {
				t.Fatal(err)
			}
			want = res.Circuit.Gates
		}

		out := filepath.Join(dir, algo+".qasm")
		cfg, err := parseFlags([]string{"-arch", "tokyo", "-algo", algo, "-stream", "-in", in, "-out", out, "-stats=false"}, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if err := run(cfg); err != nil {
			t.Fatalf("%s stream run: %v", algo, err)
		}
		raw, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		mapped, err := qasm.Parse(string(raw))
		if err != nil {
			t.Fatalf("%s: streamed output does not parse back: %v", algo, err)
		}
		if mapped.NumQubits != dev.NumQubits {
			t.Errorf("%s: output qubits %d, want device %d", algo, mapped.NumQubits, dev.NumQubits)
		}
		if len(mapped.Gates) != len(want) {
			t.Fatalf("%s: streamed %d gates, batch %d", algo, len(mapped.Gates), len(want))
		}
		for i := range mapped.Gates {
			if !mapped.Gates[i].Equal(want[i]) {
				t.Fatalf("%s: gate %d: stream %v, batch %v", algo, i, mapped.Gates[i], want[i])
			}
		}
	}
}

// TestBatchMatchesServiceBytes: the same circuit through codar batch
// (-out) and through the service's sync /v1/map gives identical bytes —
// both front doors run the one compile pipeline with SABRE's reverse
// traversal at seed 1 — for both algorithms, under the default durations
// and the iontrap preset.
func TestBatchMatchesServiceBytes(t *testing.T) {
	dir := t.TempDir()
	src := qasm.Write(workloads.Random(12, 800, 45, 9))
	in := filepath.Join(dir, "in.qasm")
	if err := os.WriteFile(in, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	srv := service.New(service.Config{Workers: 1})
	for _, algo := range []string{"codar", "sabre"} {
		for _, durations := range []string{"", "iontrap"} {
			args := []string{"-arch", "tokyo", "-algo", algo, "-in", in, "-out", filepath.Join(dir, "out.qasm"), "-stats=false"}
			if durations != "" {
				args = append(args, "-durations", durations)
			}
			cfg, err := parseFlags(args, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if err := run(cfg); err != nil {
				t.Fatalf("%s/%q: %v", algo, durations, err)
			}
			got, err := os.ReadFile(cfg.outPath)
			if err != nil {
				t.Fatal(err)
			}

			body, err := json.Marshal(api.MapRequest{QASM: src, Arch: "tokyo", Algo: algo, Durations: durations})
			if err != nil {
				t.Fatal(err)
			}
			w := httptest.NewRecorder()
			srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/map", bytes.NewReader(body)))
			var resp api.MapResponse
			if w.Code != http.StatusOK || json.Unmarshal(w.Body.Bytes(), &resp) != nil {
				t.Fatalf("%s/%q: /v1/map answered %d: %s", algo, durations, w.Code, w.Body.String())
			}
			if string(got) != resp.MappedQASM {
				t.Fatalf("%s/%q: codar -out wrote %d bytes, /v1/map mapped_qasm has %d; they differ", algo, durations, len(got), len(resp.MappedQASM))
			}
		}
	}
}

// TestRunStreamFailureKeepsOut: a -stream run that fails late, after
// chunks have been written, leaves -out as it was — absent if it was
// absent, its old bytes if it existed — and no temporary file beside it.
func TestRunStreamFailureKeepsOut(t *testing.T) {
	dir := t.TempDir()
	var prog strings.Builder
	prog.WriteString("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[16];\n")
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		a := rng.Intn(16)
		fmt.Fprintf(&prog, "cx q[%d],q[%d];\n", a, (a+1+rng.Intn(15))%16)
	}
	prog.WriteString("cx q[1],q[77];\n")
	in := filepath.Join(dir, "late-error.qasm")
	if err := os.WriteFile(in, []byte(prog.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, algo := range []string{"codar", "sabre"} {
		for _, old := range []string{"", "// the previous mapping\n"} {
			out := filepath.Join(dir, algo+".qasm")
			if err := os.RemoveAll(out); err != nil {
				t.Fatal(err)
			}
			if old != "" {
				if err := os.WriteFile(out, []byte(old), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			cfg, err := parseFlags([]string{"-arch", "tokyo", "-algo", algo, "-stream", "-in", in, "-out", out, "-stats=false"}, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if err := run(cfg); err == nil || !strings.Contains(err.Error(), "out of range") {
				t.Fatalf("%s: run = %v, want the late range error", algo, err)
			}
			got, err := os.ReadFile(out)
			switch {
			case old == "" && !errors.Is(err, fs.ErrNotExist):
				t.Errorf("%s: failed run left a %d-byte file at -out (read err %v)", algo, len(got), err)
			case old != "" && string(got) != old:
				t.Errorf("%s: failed run replaced -out with %d bytes (read err %v)", algo, len(got), err)
			}
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if name := e.Name(); name != "late-error.qasm" && name != "codar.qasm" && name != "sabre.qasm" {
			t.Errorf("failed runs left %s behind", name)
		}
	}
}

// TestParseFlagsErrorPaths: every malformed command line must produce an
// error (so main exits non-zero) and say something on stderr (PR 4
// flag-hardening contract, extended to the portfolio flags).
func TestParseFlagsErrorPaths(t *testing.T) {
	tests := []struct {
		name string
		args []string
		want string // substring of the error or stderr output
	}{
		{"positional junk", []string{"circuit.qasm"}, "unexpected arguments"},
		{"junk after flags", []string{"-arch", "tokyo", "map"}, "unexpected arguments"},
		{"unknown flag", []string{"-architecture", "tokyo"}, "flag provided but not defined"},
		{"bad algo", []string{"-algo", "astar"}, "-algo must be codar or sabre"},
		{"bad durations", []string{"-durations", "photonic"}, "unknown duration preset"},
		{"bad objective", []string{"-portfolio", "-objective", "fastest"}, "unknown objective"},
		{"bad seed list", []string{"-portfolio", "-seeds", "1,two"}, "bad seed"},
		{"empty seed list", []string{"-portfolio", "-seeds", ","}, "at least one seed"},
		{"negative workers", []string{"-portfolio", "-workers", "-1"}, "-workers must be >= 0"},
		{"max-esp without calib", []string{"-portfolio", "-objective", "max-esp"}, "needs -calib"},
		{"seeds without portfolio", []string{"-seeds", "1,2,3"}, "-seeds requires -portfolio"},
		{"objective without portfolio", []string{"-objective", "min-swaps"}, "-objective requires -portfolio"},
		{"workers without portfolio", []string{"-workers", "2"}, "-workers requires -portfolio"},
		{"algo with portfolio", []string{"-portfolio", "-algo", "sabre"}, "-algo is single-shot only"},
		{"seed with portfolio", []string{"-portfolio", "-seed", "7"}, "-seed is single-shot only"},
		{"stream with portfolio", []string{"-stream", "-portfolio"}, "-stream cannot be combined with -portfolio"},
		{"stream with seed", []string{"-stream", "-seed", "7"}, "cannot be combined with -stream"},
		{"stream with verify", []string{"-stream", "-verify"}, "cannot be combined with -stream"},
		{"stream with gantt", []string{"-stream", "-gantt"}, "cannot be combined with -stream"},
		{"stream with optimize", []string{"-stream", "-optimize"}, "cannot be combined with -stream"},
		{"stream with orient", []string{"-stream", "-orient"}, "cannot be combined with -stream"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var stderr bytes.Buffer
			cfg, err := parseFlags(tc.args, &stderr)
			if err == nil {
				t.Fatalf("accepted %v: %+v", tc.args, cfg)
			}
			if !strings.Contains(err.Error(), tc.want) && !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("error %q / stderr %q missing %q", err, stderr.String(), tc.want)
			}
		})
	}
}
