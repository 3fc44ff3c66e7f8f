package portfolio

import (
	"context"
	"strings"
	"testing"

	"codar/internal/arch"
	"codar/internal/calib"
	"codar/internal/circuit"
	"codar/internal/compile"
	"codar/internal/core"
	"codar/internal/placement"
	"codar/internal/qasm"
	"codar/internal/sabre"
	"codar/internal/schedule"
	"codar/internal/verify"
	"codar/internal/workloads"
)

func benchCircuit(t *testing.T, name string) *workloads.Benchmark {
	t.Helper()
	b, err := workloads.ByName(name)
	if err != nil {
		t.Fatalf("benchmark %s: %v", name, err)
	}
	return &b
}

// fingerprint captures everything winner-shaped: the selected index and the
// exact output bytes.
func fingerprint(t *testing.T, res *Result) string {
	t.Helper()
	if res.Winner == nil || res.WinnerIndex < 0 {
		t.Fatal("result has no winner")
	}
	var sb strings.Builder
	wr := res.WinnerReport()
	sb.WriteString(string(res.Objective))
	sb.WriteByte('|')
	sb.WriteString(qasm.Write(res.Winner.Circuit))
	sb.WriteByte('|')
	sb.WriteString(strings.Join([]string{
		string(wr.Placement), string(wr.Algorithm),
	}, "/"))
	return sb.String()
}

// TestDeterministicWinnerAcrossWorkers pins the portfolio's determinism
// contract: the same inputs pick the same winner — byte-identical mapped
// output included — across repeated runs with shuffled worker counts, with
// early abandon racing the candidates. Run under -race by the CI race job.
func TestDeterministicWinnerAcrossWorkers(t *testing.T) {
	b := benchCircuit(t, "qft_10")
	dev := arch.IBMQ20Tokyo()
	workerSchedule := []int{4, 1, 8, 2, 16, 3, 5, 2, 7, 4} // 10 runs, shuffled pool sizes
	var want string
	var wantIdx int
	for i, workers := range workerSchedule {
		res, err := Run(b.Circuit(), dev, Spec{Workers: workers, EarlyAbandon: true})
		if err != nil {
			t.Fatalf("run %d (workers=%d): %v", i, workers, err)
		}
		fp := fingerprint(t, res)
		if i == 0 {
			want, wantIdx = fp, res.WinnerIndex
			continue
		}
		if res.WinnerIndex != wantIdx {
			t.Fatalf("run %d (workers=%d): winner index %d, want %d", i, workers, res.WinnerIndex, wantIdx)
		}
		if fp != want {
			t.Fatalf("run %d (workers=%d): winner fingerprint diverged", i, workers)
		}
	}
}

// TestEarlyAbandonNeverChangesWinner is the DepthBound equivalence
// property: cutting losers via the shared bound must select exactly the
// winner a full (no-abandon) run selects, across several benchmarks and
// devices.
func TestEarlyAbandonNeverChangesWinner(t *testing.T) {
	cases := []struct {
		bench string
		dev   *arch.Device
	}{
		{"qft_10", arch.IBMQ20Tokyo()},
		{"rand_10_g300", arch.IBMQ20Tokyo()},
		{"ghz_16", arch.IBMQ16Melbourne()},
		{"adder_6", arch.Enfield6x6()},
		{"qaoa_12_p2", arch.IBMQ20Tokyo()},
	}
	for _, tc := range cases {
		t.Run(tc.bench+"/"+tc.dev.Name, func(t *testing.T) {
			c := benchCircuit(t, tc.bench).Circuit()
			full, err := Run(c, tc.dev, Spec{Workers: 1, EarlyAbandon: false})
			if err != nil {
				t.Fatal(err)
			}
			cut, err := Run(c, tc.dev, Spec{Workers: 4, EarlyAbandon: true})
			if err != nil {
				t.Fatal(err)
			}
			if cut.WinnerIndex != full.WinnerIndex {
				t.Fatalf("early abandon changed the winner: %d (abandoned %d) vs %d",
					cut.WinnerIndex, cut.Abandoned, full.WinnerIndex)
			}
			if got, want := fingerprint(t, cut), fingerprint(t, full); got != want {
				t.Fatal("early abandon changed the winner's output bytes")
			}
			if cut.Winner.WeightedDepth != full.Winner.WeightedDepth || cut.Winner.Swaps != full.Winner.Swaps {
				t.Fatalf("winner stats diverged: depth %d/%d swaps %d/%d",
					cut.Winner.WeightedDepth, full.Winner.WeightedDepth, cut.Winner.Swaps, full.Winner.Swaps)
			}
		})
	}
}

// TestSelectionTotalOrder checks the winner against a sequential scan of
// the full report under the documented order (score, depth, swaps, index).
func TestSelectionTotalOrder(t *testing.T) {
	c := benchCircuit(t, "rand_10_g300").Circuit()
	dev := arch.IBMQ20Tokyo()
	for _, obj := range []Objective{ObjectiveMinDepth, ObjectiveMinSwaps} {
		res, err := Run(c, dev, Spec{Workers: 1, Objective: obj})
		if err != nil {
			t.Fatal(err)
		}
		bestIdx := -1
		for i, r := range res.Candidates {
			if r.Err != "" || r.Abandoned {
				continue
			}
			if bestIdx < 0 {
				bestIdx = i
				continue
			}
			b := res.Candidates[bestIdx]
			if r.Score < b.Score ||
				(r.Score == b.Score && (r.Depth < b.Depth ||
					(r.Depth == b.Depth && (r.Swaps < b.Swaps ||
						(r.Swaps == b.Swaps && r.Index < b.Index))))) {
				bestIdx = i
			}
		}
		if res.WinnerIndex != bestIdx {
			t.Errorf("%s: winner %d, sequential scan says %d", obj, res.WinnerIndex, bestIdx)
		}
	}
}

// TestWinnerVerifies runs the full verifier over the selected output.
func TestWinnerVerifies(t *testing.T) {
	c := benchCircuit(t, "qft_10").Circuit()
	dev := arch.IBMQ20Tokyo()
	res, err := Run(c, dev, Spec{EarlyAbandon: true})
	if err != nil {
		t.Fatal(err)
	}
	w := res.Winner
	if err := verify.Full(c, w.Circuit, dev, w.InitialLayout, w.FinalLayout); err != nil {
		t.Fatalf("winner failed verification: %v", err)
	}
	if wd := schedule.WeightedDepth(w.Circuit, dev.Durations); w.WeightedDepth != wd || res.WinnerReport().Depth != wd {
		t.Fatalf("winner weighted depth %d, report %d, schedule makespan %d", w.WeightedDepth, res.WinnerReport().Depth, wd)
	}
}

// TestReportShape pins the grid enumeration: rectangular, in seed-major
// order, one report per candidate with matching indices.
func TestReportShape(t *testing.T) {
	spec := Spec{Seeds: []int64{7, 9, 11}}
	cands := Enumerate(spec)
	if want := 3 * 4 * 2; len(cands) != want {
		t.Fatalf("grid size %d, want %d", len(cands), want)
	}
	for i, cand := range cands {
		if cand.Index != i {
			t.Fatalf("candidate %d carries index %d", i, cand.Index)
		}
	}
	if cands[0].Seed != 7 || cands[8].Seed != 9 || cands[16].Seed != 11 {
		t.Fatal("enumeration is not seed-major")
	}
	if cands[0].Algorithm != compile.Codar || cands[1].Algorithm != compile.Sabre {
		t.Fatal("algorithm is not the innermost axis")
	}

	c := benchCircuit(t, "adder_6").Circuit()
	res, err := Run(c, arch.IBMQ20Tokyo(), Spec{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) != 16 {
		t.Fatalf("report has %d rows, want 16", len(res.Candidates))
	}
	for i, r := range res.Candidates {
		if r.Index != i || r.Placement == "" || r.Algorithm == "" {
			t.Fatalf("report row %d incomplete: %+v", i, r)
		}
	}
	if res.Completed+res.Abandoned != 16 {
		t.Fatalf("completed %d + abandoned %d != 16", res.Completed, res.Abandoned)
	}
}

// TestSeedInsensitiveDuplicatesShareOutcome pins the dedup of
// seed-insensitive placements: the seed-2 trivial/dense rows must mirror
// their seed-1 primaries' stats (they are copies, not recomputations) while
// keeping their own grid identity.
func TestSeedInsensitiveDuplicatesShareOutcome(t *testing.T) {
	c := benchCircuit(t, "adder_6").Circuit()
	res, err := Run(c, arch.IBMQ20Tokyo(), Spec{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	byKey := func(seed int64, m placement.Method, a compile.Algorithm) Report {
		for _, r := range res.Candidates {
			if r.Seed == seed && r.Placement == m && r.Algorithm == a {
				return r
			}
		}
		t.Fatalf("grid point s%d/%s/%s missing", seed, m, a)
		return Report{}
	}
	for _, m := range []placement.Method{placement.MethodTrivial, placement.MethodDense} {
		for _, a := range []compile.Algorithm{compile.Codar, compile.Sabre} {
			p, d := byKey(1, m, a), byKey(2, m, a)
			if d.Depth != p.Depth || d.Swaps != p.Swaps || d.Abandoned != p.Abandoned || d.Err != p.Err {
				t.Errorf("%s/%s: seed-2 row %+v diverged from seed-1 primary %+v", m, a, d, p)
			}
			if d.Seed != 2 || d.Index == p.Index {
				t.Errorf("%s/%s: duplicate row lost its grid identity: %+v", m, a, d)
			}
		}
	}
}

// TestMaxESP exercises the calibration-scored objective: the winner must
// carry the highest ESP among completed candidates, and the objective must
// refuse to run without a snapshot.
func TestMaxESP(t *testing.T) {
	c := benchCircuit(t, "qft_10").Circuit()
	dev := arch.IBMQ20Tokyo()
	if _, err := Run(c, dev, Spec{Objective: ObjectiveMaxESP}); err == nil {
		t.Fatal("max-esp without a snapshot must fail")
	}
	snap := calib.Synthetic(dev, 1)
	res, err := Run(c, dev, Spec{Objective: ObjectiveMaxESP, Snapshot: snap, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Candidates {
		if r.Err != "" || r.Abandoned {
			continue
		}
		if r.ESP > *res.Winner.ESP {
			t.Fatalf("candidate %d has ESP %v > winner's %v", r.Index, r.ESP, *res.Winner.ESP)
		}
	}
	if *res.Winner.ESP <= 0 {
		t.Fatalf("winner ESP %v, want > 0", *res.Winner.ESP)
	}
}

// TestCalibratedPlacementMatchesSingleShot pins that a calibrated
// portfolio's sabre-reverse candidates place under the same weighted metric
// as the calibrated single-shot pipeline: grid point (seed 1,
// sabre-reverse, codar) must reproduce its output byte-for-byte, so the
// max-esp portfolio can never do worse than plain calibrated mapping.
func TestCalibratedPlacementMatchesSingleShot(t *testing.T) {
	c := benchCircuit(t, "qft_10").Circuit()
	dev := arch.IBMQ20Tokyo()
	snap := calib.Synthetic(dev, 1)
	cost, err := snap.CostModel(dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	initial, err := sabre.InitialLayout(c, dev, 1, sabre.Options{Cost: cost})
	if err != nil {
		t.Fatal(err)
	}
	single, err := core.Remap(c, dev, initial, core.Options{Cost: cost})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, dev, Spec{
		Seeds:      []int64{1},
		Placements: []placement.Method{placement.MethodSabreReverse},
		Algorithms: []compile.Algorithm{compile.Codar},
		Objective:  ObjectiveMaxESP,
		Snapshot:   snap,
		Cost:       cost,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := qasm.Write(res.Winner.Circuit), qasm.Write(single.Circuit); got != want {
		t.Fatal("calibrated portfolio grid point diverged from the calibrated single-shot pipeline")
	}
}

// TestCandidatePanicBecomesError pins the pool-safety contract: a panic
// inside one candidate (here provoked with a nil device) is recovered into
// that candidate's error report instead of crashing the host process.
func TestCandidatePanicBecomesError(t *testing.T) {
	c := benchCircuit(t, "adder_6").Circuit()
	cand := Candidate{Index: 0, Seed: 1, Placement: placement.MethodTrivial, Algorithm: compile.Codar}
	initial := arch.NewTrivialLayout(c.NumQubits, c.NumQubits)
	o := runCandidate(circuit.Assemble(c), nil, compile.Spec{}, ObjectiveMinDepth, cand, initial, nil)
	if o.rep.Err == "" || !strings.Contains(o.rep.Err, "panicked") {
		t.Fatalf("panicking candidate reported %+v, want a panicked error", o.rep)
	}
	if o.res != nil {
		t.Fatal("panicking candidate retained a mapped output")
	}
}

// TestSpecErrors covers the validation paths.
func TestSpecErrors(t *testing.T) {
	c := benchCircuit(t, "adder_6").Circuit()
	dev := arch.IBMQ20Tokyo()
	if _, err := Run(c, dev, Spec{Objective: "fastest"}); err == nil {
		t.Error("unknown objective accepted")
	}
	if _, err := Run(c, dev, Spec{Algorithms: []compile.Algorithm{"astar"}}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	// An unknown placement is rejected before any candidate runs, even
	// beside placements that would produce a winner.
	bad := []placement.Method{placement.MethodTrivial, "bogus", placement.MethodSabreReverse}
	if res, err := Run(c, dev, Spec{Placements: bad}); err == nil || !strings.Contains(err.Error(), `unknown method "bogus"`) {
		t.Errorf("unknown placement: result %v, error %v; want the placement's error", res != nil, err)
	}
	if _, err := ParseObjective("min-depth"); err != nil {
		t.Error(err)
	}
	// A placement that rejects the circuit on every candidate surfaces the
	// first failure: a 6-qubit device cannot host the 10-qubit circuit.
	small, err := arch.ByName("linear6")
	if err != nil {
		t.Fatal(err)
	}
	wide := benchCircuit(t, "qft_10").Circuit()
	if _, err := Run(wide, small, Spec{}); err == nil {
		t.Error("oversized circuit accepted")
	}
	// CODAR options may not set what the Spec owns; each field alone is
	// rejected up front, naming the field to use.
	cm, err := arch.NewCostModel(dev, make([]float64, len(dev.Edges)))
	if err != nil {
		t.Fatal(err)
	}
	for want, codar := range map[string]core.Options{
		"set Spec.Ctx instead":          {Ctx: context.Background()},
		"set Spec.Cost instead":         {Cost: cm},
		"set Spec.EarlyAbandon instead": {DepthBound: &arch.DepthBound{}},
	} {
		if _, err := Run(c, dev, Spec{Codar: codar}); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Codar %+v: err = %v, want %q", codar, err, want)
		}
	}
}

// TestMinSwapsIgnoresEarlyAbandon pins that the depth bound is inert under
// objectives it could corrupt: min-swaps may legitimately select a deeper
// schedule, so EarlyAbandon must not cut anything.
func TestMinSwapsIgnoresEarlyAbandon(t *testing.T) {
	c := benchCircuit(t, "rand_10_g300").Circuit()
	dev := arch.IBMQ20Tokyo()
	res, err := Run(c, dev, Spec{Objective: ObjectiveMinSwaps, EarlyAbandon: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Abandoned != 0 {
		t.Fatalf("min-swaps abandoned %d candidates; the bound must be inert", res.Abandoned)
	}
}
