package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"codar/internal/arch"
	"codar/internal/calib"
	"codar/internal/core"
	"codar/internal/portfolio"
	"codar/internal/workloads"
)

// TestPortfolioStudyDominates pins the study's structural guarantee: the
// single-shot pipeline (seed-1 sabre-reverse + CODAR) is itself a grid
// point, so under the min-depth objective the portfolio winner can tie but
// never lose on weighted depth.
func TestPortfolioStudyDominates(t *testing.T) {
	dev := arch.IBMQ5() // 5 qubits keeps the eligible slice small and fast
	snap := calib.Synthetic(dev, Seed)
	res, err := RunPortfolioStudy(dev, snap, core.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("study ran no benchmarks")
	}
	for _, row := range res.Rows {
		if row.PortWD > row.SingleWD {
			t.Errorf("%s: portfolio depth %d worse than single-shot %d", row.Benchmark, row.PortWD, row.SingleWD)
		}
		if row.Candidates != 16 {
			t.Errorf("%s: grid of %d candidates, want 16", row.Benchmark, row.Candidates)
		}
		if row.Completed+row.Abandoned != row.Candidates {
			t.Errorf("%s: completed %d + abandoned %d != %d", row.Benchmark, row.Completed, row.Abandoned, row.Candidates)
		}
		if row.SingleESP <= 0 || row.PortESP <= 0 {
			t.Errorf("%s: ESP columns missing (%v/%v)", row.Benchmark, row.SingleESP, row.PortESP)
		}
	}
	if wins := res.DepthWins(); wins < 0 || wins > len(res.Rows) {
		t.Errorf("depth win-rate %d out of range", wins)
	}
	if r := res.MeanDepthRatio(); r <= 0 || r > 1.0000001 {
		t.Errorf("mean depth ratio %v, want in (0, 1]", r)
	}

	var buf bytes.Buffer
	if err := WritePortfolioStudy(&buf, res); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"portfolio depth win-rate", "mean depth ratio", "ESP win-rate"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

// TestPortfolioStudyDeterministicAcrossWorkers: the outer fan-out must not
// change any number (every inner selection is deterministic).
func TestPortfolioStudyDeterministicAcrossWorkers(t *testing.T) {
	dev := arch.IBMQ5()
	serial, err := RunPortfolioStudy(dev, nil, core.Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunPortfolioStudy(dev, nil, core.Options{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Rows) != len(parallel.Rows) {
		t.Fatal("row counts differ")
	}
	for i := range serial.Rows {
		s, p := serial.Rows[i], parallel.Rows[i]
		if s.PortWD != p.PortWD || s.SingleWD != p.SingleWD || s.Winner != p.Winner {
			t.Errorf("%s: serial %+v vs parallel %+v", s.Benchmark, s.Winner, p.Winner)
		}
	}
}

// TestPortfolioTokyoSubsetPins pins the portfolio study on a 9-circuit
// slice of the Tokyo suite (min-depth objective, early abandon, one
// worker): 4 depth wins and a mean depth ratio of 0.976559. The study is
// deterministic, so any drift means a mapper, a placement or the
// portfolio's selection changed.
func TestPortfolioTokyoSubsetPins(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	spec := portfolio.Spec{Objective: portfolio.ObjectiveMinDepth, EarlyAbandon: true, Workers: 1}
	res := PortfolioStudyResult{Device: dev, Spec: spec}
	for _, name := range []string{
		"qft_10", "qft_16", "rand_10_g300", "rand_16_g1000",
		"qv_12_d12", "revnet_12_s1", "ising_12_6", "adder_6", "grover_5",
	} {
		b, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		row, err := portfolioCompareOn(b, dev, nil, spec)
		if err != nil {
			t.Fatal(err)
		}
		res.Rows = append(res.Rows, row)
	}
	ratio := math.Round(res.MeanDepthRatio()*1e6) / 1e6
	if len(res.Rows) != 9 || res.DepthWins() != 4 || ratio != 0.976559 {
		t.Fatalf("%d rows, %d depth wins, mean depth ratio %.6f; want 9, 4, 0.976559",
			len(res.Rows), res.DepthWins(), ratio)
	}
}
