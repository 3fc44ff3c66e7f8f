package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"codar/internal/arch"
	"codar/internal/circuit"
	"codar/internal/core"
	"codar/internal/qasm"
	"codar/internal/sabre"
	"codar/internal/schedule"
	"codar/internal/workloads"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks
// against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload at a tiny size in both modes and asserts
// that every metric BENCHMARK.json names appears with its unit.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d/%d metrics, the benchmark reports %d/%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for _, w := range spec.Workloads {
		for _, trace := range []string{"0", "1"} {
			w, trace := w.Name, trace
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", w, "--seed", "3", "--seconds", "0.3", "--trace", trace, "--smoke", "--workdir", t.TempDir()}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\n%s", code, stderr.String())
				}
				lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
				var res result
				if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
					t.Fatalf("last line is not a result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result %+v", res)
				}
				want := spec.EndToEnd
				if trace == "1" {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("got %d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
					}
				}
			})
		}
	}
}

// mappedTokyo maps a small random circuit onto Tokyo the way fig8-suite
// does, for the negative checks.
func mappedTokyo(t *testing.T) (orig *circuit.Circuit, res *core.Result, dev *arch.Device, initial *arch.Layout) {
	t.Helper()
	dev = arch.IBMQ20Tokyo()
	orig = workloads.Random(10, 200, 45, 7)
	initial, err := sabre.InitialLayout(orig, dev, 1, sabre.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err = core.Remap(orig, dev, initial, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkMapping(orig, res.Circuit, dev, initial); err != nil {
		t.Fatalf("honest mapping rejected: %v", err)
	}
	return orig, res, dev, initial
}

// uncoupledSwap corrupts a mapping: it exchanges the targets of two
// two-qubit gates so that the first lands on a pair the device does not
// couple. It returns false when no such exchange exists.
func uncoupledSwap(c *circuit.Circuit, dev *arch.Device) bool {
	for i, g := range c.Gates {
		if g.Op != circuit.OpCX {
			continue
		}
		for j := i + 1; j < len(c.Gates); j++ {
			h := c.Gates[j]
			if h.Op != circuit.OpCX || dev.Adjacent(g.Qubits[0], h.Qubits[1]) || g.Qubits[0] == h.Qubits[1] {
				continue
			}
			g2, h2 := g.Clone(), h.Clone()
			g2.Qubits[1], h2.Qubits[1] = h.Qubits[1], g.Qubits[1]
			c.Gates[i], c.Gates[j] = g2, h2
			return true
		}
	}
	return false
}

// TestCheckRejectsCorruptMapping feeds the correctness checks a mapping
// with two gates swapped onto uncoupled qubits: the batch check and the
// stream sink must both fail.
func TestCheckRejectsCorruptMapping(t *testing.T) {
	orig, res, dev, initial := mappedTokyo(t)
	bad := res.Circuit.Clone()
	if !uncoupledSwap(bad, dev) {
		t.Fatal("no uncoupled exchange found")
	}
	if err := checkMapping(orig, bad, dev, initial); err == nil {
		t.Error("checkMapping accepted a gate on uncoupled qubits")
	}

	var out bytes.Buffer
	sw, err := qasm.NewStreamWriter(&out, dev.NumQubits, 0)
	if err != nil {
		t.Fatal(err)
	}
	sink := &streamSink{dev: dev, sw: sw, rt: newRuntimeReader()}
	chunk := make([]schedule.ScheduledGate, len(bad.Gates))
	for i, g := range bad.Gates {
		chunk[i] = schedule.ScheduledGate{Gate: g}
	}
	if err := sink.Flush(chunk); err != nil {
		t.Fatal(err)
	}
	if sink.err == nil {
		t.Error("stream sink accepted a gate on uncoupled qubits")
	}
}

// TestCheckRejectsReorderedMapping swaps two dependent gates of an honest
// mapping: compliance still holds, equivalence must not.
func TestCheckRejectsReorderedMapping(t *testing.T) {
	orig, res, dev, initial := mappedTokyo(t)
	bad := res.Circuit.Clone()
	swapped := false
	for i := 0; i+1 < len(bad.Gates) && !swapped; i++ {
		g, h := bad.Gates[i], bad.Gates[i+1]
		if g.Op != circuit.OpSwap && h.Op != circuit.OpSwap && g.SharesQubit(h) && !circuit.Commute(g, h) {
			bad.Gates[i], bad.Gates[i+1] = h, g
			swapped = true
		}
	}
	if !swapped {
		t.Fatal("no dependent neighbours found")
	}
	if err := checkMapping(orig, bad, dev, initial); err == nil {
		t.Error("checkMapping accepted reordered dependent gates")
	}
}

// TestRecordStreamReference recomputes streamSeed1SHA256 from batch
// core.Remap. It maps a million gates in memory, so it runs only when
// PERFBENCH_RECORD=1.
func TestRecordStreamReference(t *testing.T) {
	if os.Getenv("PERFBENCH_RECORD") != "1" {
		t.Skip("set PERFBENCH_RECORD=1 to recompute the stream-1m reference")
	}
	path := filepath.Join(t.TempDir(), "stream.qasm")
	if _, _, _, err := writeStreamInput(path, streamGates, 1); err != nil {
		t.Fatal(err)
	}
	got, err := batchStreamSHA256(path, arch.IBMQ20Tokyo())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("batch sha256 %s", got)
	if got != streamSeed1SHA256 {
		t.Errorf("recorded %s, batch mapping gives %s", streamSeed1SHA256, got)
	}
}

// batchStreamSHA256 renders batch core.Remap of the QASM file at path the
// way the stream sink does and returns the sha256 of the bytes.
func batchStreamSHA256(path string, dev *arch.Device) (string, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	parsed, err := qasm.Parse(string(src))
	if err != nil {
		return "", err
	}
	c := circuit.Decompose(parsed)
	res, err := core.Remap(c, dev, nil, core.Options{})
	if err != nil {
		return "", err
	}
	h := sha256.New()
	sw, err := qasm.NewStreamWriter(h, dev.NumQubits, c.NumClbits)
	if err != nil {
		return "", err
	}
	for _, g := range res.Circuit.Gates {
		if err := sw.WriteGate(g); err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
