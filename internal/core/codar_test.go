package core

import (
	"testing"

	"codar/internal/arch"
	"codar/internal/circuit"
	"codar/internal/schedule"
)

// ring4 is the 4-qubit coupling map of the paper's Fig 1/Fig 2 motivating
// examples: Q0 and Q3 are non-adjacent, and the four candidate SWAP pairs
// for CX q0,q3 are (Q0,Q1), (Q0,Q2), (Q3,Q1), (Q3,Q2).
func ring4(t *testing.T) *arch.Device {
	t.Helper()
	d, err := arch.NewDevice("fig-ring4", 4, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func mustRemap(t *testing.T, c *circuit.Circuit, dev *arch.Device, initial *arch.Layout, opts Options) *Result {
	t.Helper()
	res, err := Remap(c, dev, initial, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule().Validate(dev.Durations); err != nil {
		t.Fatalf("schedule invalid: %v", err)
	}
	checkCompliant(t, res, dev)
	return res
}

// checkCompliant asserts every two-qubit gate of the output acts on a
// coupled pair.
func checkCompliant(t *testing.T, res *Result, dev *arch.Device) {
	t.Helper()
	for _, sg := range res.Schedule().Gates {
		g := sg.Gate
		if g.Op.TwoQubit() && !dev.Adjacent(g.Qubits[0], g.Qubits[1]) {
			t.Fatalf("output gate %v on uncoupled pair", g)
		}
	}
}

// TestFig1ContextSensitivity pins the paper's first motivating example:
// program "T q2; CX q0,q3" on the 4-qubit map. The SWAP must avoid busy Q2
// (launch at cycle 0 on an edge not touching Q2), giving makespan 8 instead
// of the serialised 9.
func TestFig1ContextSensitivity(t *testing.T) {
	dev := ring4(t)
	c := circuit.New(4)
	c.T(2)
	c.CX(0, 3)
	res := mustRemap(t, c, dev, nil, Options{})

	if res.SwapCount != 1 {
		t.Fatalf("SwapCount = %d, want 1", res.SwapCount)
	}
	var swap schedule.ScheduledGate
	for _, sg := range res.Schedule().Gates {
		if sg.Gate.Op == circuit.OpSwap {
			swap = sg
		}
	}
	for _, q := range swap.Gate.Qubits {
		if q == 2 {
			t.Errorf("SWAP %v conflicts with the contextual T on Q2", swap.Gate)
		}
	}
	if swap.Start != 0 {
		t.Errorf("SWAP starts at %d, want 0 (parallel with T q2)", swap.Start)
	}
	if res.Makespan != 8 {
		t.Errorf("makespan = %d, want 8 (SWAP 6 + CX 2)", res.Makespan)
	}
}

// TestFig2DurationAwareness pins the second motivating example: with
// τ(T)=1 and τ(CX)=2, the SWAP between Q3 and Q1 can start at cycle 1 —
// right after "T q1" — while "CX q0,q2" is still running.
func TestFig2DurationAwareness(t *testing.T) {
	dev := ring4(t)
	c := circuit.New(4)
	c.T(1)
	c.CX(0, 2)
	c.CX(0, 3)
	res := mustRemap(t, c, dev, nil, Options{})

	if res.SwapCount != 1 {
		t.Fatalf("SwapCount = %d, want 1", res.SwapCount)
	}
	var swap schedule.ScheduledGate
	for _, sg := range res.Schedule().Gates {
		if sg.Gate.Op == circuit.OpSwap {
			swap = sg
		}
	}
	if !(swap.Gate.On(1) && swap.Gate.On(3)) {
		t.Errorf("SWAP on %v, want Q1,Q3 (the only lock-free edge at cycle 1)", swap.Gate.Qubits)
	}
	if swap.Start != 1 {
		t.Errorf("SWAP starts at %d, want 1 (duration-aware launch)", swap.Start)
	}
	if res.Makespan != 9 {
		t.Errorf("makespan = %d, want 9 (Fig 2(d) timeline)", res.Makespan)
	}
}

// TestFig7WorkedExample reproduces §IV-E end to end: a 6-qubit device with
// gates CX q0,q2; T q1; CX q0,q3. CODAR must keep the mapping unchanged at
// cycle 0 (the only free SWAP has negative Hbasic), then launch SWAP Q1,Q3
// at cycle 1 once Q1 frees, setting its locks to 7.
func TestFig7WorkedExample(t *testing.T) {
	// 2×3 lattice arranged so that q0-q2 couple (as in the figure):
	//   Q0 - Q2 - Q4
	//    |    |    |
	//   Q1 - Q3 - Q5
	dev, err := arch.NewDevice("fig7", 6, [][2]int{
		{0, 2}, {2, 4}, {1, 3}, {3, 5}, {0, 1}, {2, 3}, {4, 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := circuit.New(6)
	c.CX(0, 2)
	c.T(1)
	c.CX(0, 3)
	res := mustRemap(t, c, dev, nil, Options{})

	if res.SwapCount != 1 {
		t.Fatalf("SwapCount = %d, want 1", res.SwapCount)
	}
	byOp := map[circuit.Op][]schedule.ScheduledGate{}
	for _, sg := range res.Schedule().Gates {
		byOp[sg.Gate.Op] = append(byOp[sg.Gate.Op], sg)
	}
	// Cycle 0: CX q0,q2 and T q1 launch together.
	if byOp[circuit.OpT][0].Start != 0 {
		t.Errorf("T starts at %d, want 0", byOp[circuit.OpT][0].Start)
	}
	if byOp[circuit.OpCX][0].Start != 0 {
		t.Errorf("first CX starts at %d, want 0", byOp[circuit.OpCX][0].Start)
	}
	// Cycle 1: SWAP Q1,Q3 launches (Q1 freed by T; Q2 still busy).
	swap := byOp[circuit.OpSwap][0]
	if !(swap.Gate.On(1) && swap.Gate.On(3)) {
		t.Errorf("SWAP on %v, want Q1,Q3", swap.Gate.Qubits)
	}
	if swap.Start != 1 || swap.End() != 7 {
		t.Errorf("SWAP spans [%d,%d), want [1,7)", swap.Start, swap.End())
	}
	// The blocked CX then runs on (Q0, Q1) at cycle 7.
	last := byOp[circuit.OpCX][1]
	if last.Start != 7 {
		t.Errorf("second CX starts at %d, want 7", last.Start)
	}
	if !(last.Gate.On(0) && last.Gate.On(1)) {
		t.Errorf("second CX on %v, want Q0,Q1", last.Gate.Qubits)
	}
	if res.Makespan != 9 {
		t.Errorf("makespan = %d, want 9", res.Makespan)
	}
}

// TestFig6HfinePrefersBalancedRoutes checks Eq. 2: among SWAPs with equal
// Hbasic on a lattice, CODAR picks the one balancing horizontal and
// vertical distance of the blocked gate.
func TestFig6HfinePrefersBalancedRoutes(t *testing.T) {
	dev := arch.Grid("g33", 3, 3)
	// Logical a on P0=(0,0), logical b on P7=(2,1): distance 3, HD=1, VD=2.
	// Moving a right to P1=(0,1) gives distance 2 but |VD-HD| = 2.
	// Moving a down to P3=(1,0) gives distance 2 and |VD-HD| = 0.
	c := circuit.New(8)
	c.CX(0, 7)
	layout := arch.NewTrivialLayout(8, 9)

	res := mustRemap(t, c, dev, layout, Options{})
	first := res.Schedule().Gates[0]
	if first.Gate.Op != circuit.OpSwap || !(first.Gate.On(0) && first.Gate.On(3)) {
		t.Errorf("with Hfine: first swap = %v, want SWAP Q0,Q3 (balanced)", first.Gate)
	}

	// Ablation: without Hfine the tie breaks by edge index, picking (0,1).
	res2 := mustRemap(t, c, dev, layout, Options{DisableHfine: true})
	first2 := res2.Schedule().Gates[0]
	if first2.Gate.Op != circuit.OpSwap || !(first2.Gate.On(0) && first2.Gate.On(1)) {
		t.Errorf("without Hfine: first swap = %v, want SWAP Q0,Q1 (edge order)", first2.Gate)
	}
}

// TestCommutativityExposesParallelism pins §IV-B: in "CX q1,q3; CX q2,q3"
// both gates are CF, so with both pairs coupled they launch at the...
// they share q3, so the second starts when q3 frees — but commutativity
// matters when the FIRST is blocked: here CX q1,q3 needs routing while
// CX q2,q3 is directly executable. With commutativity the second launches
// immediately; without it, it waits for the first.
func TestCommutativityExposesParallelism(t *testing.T) {
	// Line: Q1 - Q2 - Q3, plus Q0 isolated-ish via Q1.
	dev := arch.Linear(4) // 0-1-2-3
	c := circuit.New(4)
	c.CX(0, 2) // blocked: distance 2
	c.CX(1, 2) // commutes with the first (shared target q2), executable
	res := mustRemap(t, c, dev, nil, Options{})
	// The directly executable CX q1,q2 must start at cycle 0.
	foundEarly := false
	for _, sg := range res.Schedule().Gates {
		if sg.Gate.Op == circuit.OpCX && sg.Start == 0 {
			foundEarly = true
		}
	}
	if !foundEarly {
		t.Error("commutative CX should launch at cycle 0")
	}

	// Ablation: with commutativity disabled the second CX cannot start at 0.
	res2 := mustRemap(t, c, dev, nil, Options{DisableCommutativity: true})
	for _, sg := range res2.Schedule().Gates {
		if sg.Gate.Op == circuit.OpCX && sg.Start == 0 {
			t.Error("without commutativity no CX should launch at cycle 0")
		}
	}
	if res2.Makespan < res.Makespan {
		t.Errorf("commutativity should not hurt: %d vs %d", res.Makespan, res2.Makespan)
	}
}

func TestCompliantCircuitNeedsNoSwaps(t *testing.T) {
	dev := arch.Linear(4)
	c := circuit.New(4).H(0).CX(0, 1).CX(1, 2).CX(2, 3).T(3)
	res := mustRemap(t, c, dev, nil, Options{})
	if res.SwapCount != 0 {
		t.Errorf("SwapCount = %d, want 0", res.SwapCount)
	}
	// Makespan equals the plain ASAP makespan of the input.
	want := schedule.ASAP(c, dev.Durations).Makespan
	if res.Makespan != want {
		t.Errorf("makespan = %d, want %d", res.Makespan, want)
	}
	if !res.FinalLayout.Equal(res.InitialLayout) {
		t.Error("layout must be unchanged without swaps")
	}
}

func TestEmptyCircuit(t *testing.T) {
	dev := arch.Linear(3)
	res := mustRemap(t, circuit.New(3), dev, nil, Options{})
	if res.Makespan != 0 || len(res.Schedule().Gates) != 0 {
		t.Error("empty circuit should produce an empty schedule")
	}
}

func TestSingleQubitOnlyCircuit(t *testing.T) {
	dev := arch.Ring(5)
	c := circuit.New(5).H(0).T(1).X(2).RZ(0.5, 3).H(4).T(0)
	res := mustRemap(t, c, dev, nil, Options{})
	if res.SwapCount != 0 {
		t.Errorf("SwapCount = %d, want 0", res.SwapCount)
	}
	if res.Makespan != 2 { // h q0 then t q0
		t.Errorf("makespan = %d, want 2", res.Makespan)
	}
}

func TestRemapErrors(t *testing.T) {
	dev := arch.Linear(3)
	// Too many qubits.
	if _, err := Remap(circuit.New(5), dev, nil, Options{}); err == nil {
		t.Error("oversized circuit accepted")
	}
	// Non-lowered input.
	c := circuit.New(3).CCX(0, 1, 2)
	if _, err := Remap(c, dev, nil, Options{}); err == nil {
		t.Error("compound gate accepted")
	}
	// Mismatched layout.
	l := arch.NewTrivialLayout(2, 3)
	if _, err := Remap(circuit.New(3).H(0), dev, l, Options{}); err == nil {
		t.Error("mismatched layout accepted")
	}
	// Disconnected device.
	split, _ := arch.NewDevice("split", 4, [][2]int{{0, 1}, {2, 3}})
	if _, err := Remap(circuit.New(2).CX(0, 1), split, nil, Options{}); err == nil {
		t.Error("disconnected device accepted")
	}
	// Invalid circuit.
	bad := &circuit.Circuit{NumQubits: 2, Gates: []circuit.Gate{circuit.New2Q(circuit.OpCX, 0, 7)}}
	if _, err := Remap(bad, dev, nil, Options{}); err == nil {
		t.Error("invalid circuit accepted")
	}
}

func TestInitialLayoutRespected(t *testing.T) {
	dev := arch.Linear(4)
	// Map logical 0 -> physical 3, logical 1 -> physical 2: adjacent, no
	// swaps needed even though logical indices are far apart physically.
	l, err := arch.NewLayout([]int{3, 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	c := circuit.New(2).CX(0, 1)
	res := mustRemap(t, c, dev, l, Options{})
	if res.SwapCount != 0 {
		t.Errorf("SwapCount = %d, want 0", res.SwapCount)
	}
	g := res.Schedule().Gates[0].Gate
	if !(g.On(3) && g.On(2)) {
		t.Errorf("CX mapped to %v, want physical (3,2)", g.Qubits)
	}
}

func TestMeasureAndBarrierFlow(t *testing.T) {
	dev := arch.Linear(3)
	c := circuit.New(3).H(0).CX(0, 1).Barrier(0, 1, 2).Measure(0, 0).Measure(1, 1)
	res := mustRemap(t, c, dev, nil, Options{})
	nMeasure, nBarrier := 0, 0
	for _, sg := range res.Schedule().Gates {
		switch sg.Gate.Op {
		case circuit.OpMeasure:
			nMeasure++
		case circuit.OpBarrier:
			nBarrier++
			if sg.Duration != 0 {
				t.Error("barrier should take zero cycles")
			}
		}
	}
	if nMeasure != 2 || nBarrier != 1 {
		t.Errorf("measure/barrier counts = %d/%d", nMeasure, nBarrier)
	}
	// Measures must come after the barrier's start (which follows CX end).
	for _, sg := range res.Schedule().Gates {
		if sg.Gate.Op == circuit.OpMeasure && sg.Start < 3 {
			t.Errorf("measure at %d precedes barrier sync at 3", sg.Start)
		}
	}
}

func TestLongDistanceRouting(t *testing.T) {
	dev := arch.Linear(8)
	c := circuit.New(8).CX(0, 7)
	res := mustRemap(t, c, dev, nil, Options{})
	if res.SwapCount < 3 {
		t.Errorf("SwapCount = %d, want >= 3 for distance 7", res.SwapCount)
	}
	// Exactly one CX in the output, on an adjacent pair.
	n := 0
	for _, sg := range res.Schedule().Gates {
		if sg.Gate.Op == circuit.OpCX {
			n++
		}
	}
	if n != 1 {
		t.Errorf("CX count = %d, want 1", n)
	}
}

func TestResultDiagnostics(t *testing.T) {
	dev := arch.Linear(5)
	c := circuit.New(5).CX(0, 4).CX(1, 3)
	res := mustRemap(t, c, dev, nil, Options{})
	if res.Cycles <= 0 {
		t.Error("Cycles should be positive")
	}
	if res.Makespan != res.Schedule().Makespan {
		t.Error("Makespan mismatch between Result and Schedule")
	}
	if res.Circuit.Len() != len(res.Schedule().Gates) {
		t.Error("Circuit/Schedule length mismatch")
	}
}

func TestFinalLayoutTracksSwaps(t *testing.T) {
	dev := arch.Linear(3)
	c := circuit.New(3).CX(0, 2)
	res := mustRemap(t, c, dev, nil, Options{})
	if res.SwapCount == 0 {
		t.Fatal("expected at least one swap")
	}
	if err := res.FinalLayout.Validate(); err != nil {
		t.Error(err)
	}
	if res.FinalLayout.Equal(res.InitialLayout) {
		t.Error("final layout should differ after swaps")
	}
	// Replaying the swaps over the initial layout must yield FinalLayout.
	replay := res.InitialLayout.Clone()
	for _, sg := range res.Schedule().Gates {
		if sg.Gate.Op == circuit.OpSwap {
			replay.SwapPhysical(sg.Gate.Qubits[0], sg.Gate.Qubits[1])
		}
	}
	if !replay.Equal(res.FinalLayout) {
		t.Error("swap replay does not reproduce FinalLayout")
	}
}
