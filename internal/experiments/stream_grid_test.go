package experiments

import (
	"fmt"
	"testing"

	"codar/internal/arch"
	"codar/internal/circuit"
	"codar/internal/core"
	"codar/internal/metrics"
	"codar/internal/qasm"
	"codar/internal/sabre"
	"codar/internal/schedule"
	"codar/internal/workloads"
)

// streamCompareOn is CompareOn with both mappers run through their
// streaming entry points, each fed through a source that is not a
// SliceSource so the window reads it ahead. It returns the benchmark's
// speedup computed entirely from streaming results, and errors if either
// mapper's streamed output diverges from its batch output in any
// observable way: the QASM rendering of the streamed gate sequence must be
// byte-identical to the batch result circuit's, and swaps/weighted depth
// must agree.
func streamCompareOn(b workloads.Benchmark, dev *arch.Device) (float64, error) {
	c := b.Circuit()
	initial, err := sabre.InitialLayout(c, dev, Seed, sabre.Options{})
	if err != nil {
		return 0, fmt.Errorf("%s on %s: %w", b.Name, dev.Name, err)
	}

	sres, err := sabre.Remap(c, dev, initial, sabre.Options{})
	if err != nil {
		return 0, fmt.Errorf("%s on %s: sabre batch: %w", b.Name, dev.Name, err)
	}
	var scol schedule.Collector
	sstream, err := sabre.RemapStream(circuit.NewDecomposeSource(circuit.NewSliceSource(c)), dev, initial, sabre.Options{}, &scol)
	if err != nil {
		return 0, fmt.Errorf("%s on %s: sabre stream: %w", b.Name, dev.Name, err)
	}
	sgot, err := diffStream(sstream.NumQubits, sstream.NumClbits, scol.Gates, sres.Circuit)
	if err != nil {
		return 0, fmt.Errorf("%s on %s: sabre: %w", b.Name, dev.Name, err)
	}
	sWD := schedule.WeightedDepth(sgot, dev.Durations)
	if sstream.SwapCount != sres.SwapCount || sstream.Makespan != sWD {
		return 0, fmt.Errorf("%s on %s: sabre stats: stream %d swaps/%d makespan, batch %d swaps, streamed WD %d",
			b.Name, dev.Name, sstream.SwapCount, sstream.Makespan, sres.SwapCount, sWD)
	}

	cres, err := core.Remap(c, dev, initial, core.Options{})
	if err != nil {
		return 0, fmt.Errorf("%s on %s: codar batch: %w", b.Name, dev.Name, err)
	}
	var ccol schedule.Collector
	cstream, err := core.RemapStream(circuit.NewDecomposeSource(circuit.NewSliceSource(c)), dev, initial, core.Options{}, &ccol)
	if err != nil {
		return 0, fmt.Errorf("%s on %s: codar stream: %w", b.Name, dev.Name, err)
	}
	cgot, err := diffStream(cstream.NumQubits, cstream.NumClbits, ccol.Gates, cres.Circuit)
	if err != nil {
		return 0, fmt.Errorf("%s on %s: codar: %w", b.Name, dev.Name, err)
	}
	if cstream.SwapCount != cres.SwapCount || cstream.Makespan != cres.Makespan {
		return 0, fmt.Errorf("%s on %s: codar stats: stream %d swaps/%d makespan, batch %d/%d",
			b.Name, dev.Name, cstream.SwapCount, cstream.Makespan, cres.SwapCount, cres.Makespan)
	}

	// Fig 8 measures the ASAP weighted depth of each mapper's output
	// circuit (for CODAR that can differ from its simulated makespan), so
	// the streaming-path speedup is computed from the streamed sequences.
	return float64(sWD) / float64(schedule.WeightedDepth(cgot, dev.Durations)), nil
}

// diffStream renders the streamed gate sequence and the batch result
// circuit as QASM, requires byte identity, and returns the reconstructed
// streamed circuit.
func diffStream(nq, nc int, streamed []schedule.ScheduledGate, batch *circuit.Circuit) (*circuit.Circuit, error) {
	// A stream has no circuit name; copy the batch one so the Write
	// comparison is over the program, not the metadata comment.
	got := &circuit.Circuit{Name: batch.Name, NumQubits: nq, NumClbits: nc}
	got.Gates = make([]circuit.Gate, len(streamed))
	for i, sg := range streamed {
		got.Gates[i] = sg.Gate
	}
	if a, b := qasm.Write(got), qasm.Write(batch); a != b {
		return nil, fmt.Errorf("streamed QASM (%d bytes, %d gates) differs from batch (%d bytes, %d gates)",
			len(a), len(got.Gates), len(b), len(batch.Gates))
	}
	return got, nil
}

// TestStreamFig8GridMatchesBatch is the differential grid over the full
// Fig 8 matrix: every eligible benchmark on every Fig 8 architecture, both
// mappers, streamed and batch-mapped from the shared reverse-traversal
// initial layout. Beyond per-row byte identity, the four average-speedup
// pins the fig8-guard CI job enforces on the batch path must reproduce
// exactly from streaming-path numbers — the streaming mapper earns the
// same Fig 8 panel, not just the same outputs on easy inputs.
func TestStreamFig8GridMatchesBatch(t *testing.T) {
	grid := []struct {
		dev *arch.Device
		pin string
	}{
		{arch.IBMQ16Melbourne(), "1.133"},
		{arch.Enfield6x6(), "1.184"},
		{arch.IBMQ20Tokyo(), "1.114"},
		{arch.SycamoreQ54(), "1.185"},
	}
	for _, g := range grid {
		g := g
		t.Run(g.dev.Name, func(t *testing.T) {
			t.Parallel()
			eligible := EligibleSuite(g.dev)
			speedups := make([]float64, len(eligible))
			err := RunBatch(len(eligible), 0, func(i int) error {
				s, err := streamCompareOn(eligible[i], g.dev)
				speedups[i] = s
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%.3f", metrics.Mean(speedups)); got != g.pin {
				t.Fatalf("streaming-path avg speedup %s over %d benchmarks, pinned %s",
					got, len(eligible), g.pin)
			}
		})
	}
}
