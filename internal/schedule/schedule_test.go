package schedule

import (
	"strings"
	"testing"
	"testing/quick"

	"codar/internal/arch"
	"codar/internal/circuit"
)

func sc() arch.Durations { return arch.SuperconductingDurations() }

func TestASAPSerialChain(t *testing.T) {
	// h q0 (1 cycle); t q0 (1); cx q0,q1 (2) -> makespan 4.
	c := circuit.New(2).H(0).T(0).CX(0, 1)
	s := ASAP(c, sc())
	if s.Makespan != 4 {
		t.Errorf("makespan = %d, want 4", s.Makespan)
	}
	if err := s.Validate(sc()); err != nil {
		t.Error(err)
	}
}

func TestASAPParallelism(t *testing.T) {
	// Independent gates run in parallel: h q0 || cx q1,q2.
	c := circuit.New(3).H(0).CX(1, 2)
	s := ASAP(c, sc())
	if s.Makespan != 2 {
		t.Errorf("makespan = %d, want 2", s.Makespan)
	}
	if s.Gates[0].Start != 0 || s.Gates[1].Start != 0 {
		t.Error("both gates should start at 0")
	}
}

// TestASAPPaperFig2 pins the paper's Fig 2 timing claim: with τ(T)=1 and
// τ(CX)=2, "T q2" finishes at cycle 1 while "CX q0,q2"... — wait, in
// Fig 2 "T q1" (1 cycle) runs in parallel with "CX q0,q2" (2 cycles), so a
// SWAP q1,q3 can start at cycle 1 while SWAPs touching q0/q2 start at 2.
func TestASAPPaperFig2(t *testing.T) {
	c := circuit.New(4)
	c.T(1)
	c.CX(0, 2)
	c.Swap(1, 3) // the CODAR choice: starts right after T finishes
	s := ASAP(c, sc())
	byOp := map[circuit.Op]ScheduledGate{}
	for _, sg := range s.Gates {
		byOp[sg.Gate.Op] = sg
	}
	if byOp[circuit.OpT].End() != 1 {
		t.Errorf("T ends at %d, want 1", byOp[circuit.OpT].End())
	}
	if byOp[circuit.OpCX].End() != 2 {
		t.Errorf("CX ends at %d, want 2", byOp[circuit.OpCX].End())
	}
	if byOp[circuit.OpSwap].Start != 1 {
		t.Errorf("SWAP q1,q3 starts at %d, want 1", byOp[circuit.OpSwap].Start)
	}
	// The alternative SWAP q3,q2 would have to wait until cycle 2.
	alt := circuit.New(4)
	alt.T(1)
	alt.CX(0, 2)
	alt.Swap(3, 2)
	s2 := ASAP(alt, sc())
	for _, sg := range s2.Gates {
		if sg.Gate.Op == circuit.OpSwap && sg.Start != 2 {
			t.Errorf("SWAP q3,q2 starts at %d, want 2", sg.Start)
		}
	}
}

func TestWeightedDepthMatchesASAP(t *testing.T) {
	f := func(seed int64) bool {
		c := randomPhysCircuit(seed, 6, 50)
		return WeightedDepth(c, sc()) == ASAP(c, sc()).Makespan
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestWeightedDepthVsPlainDepth(t *testing.T) {
	// Under uniform durations the weighted depth equals the plain depth.
	f := func(seed int64) bool {
		c := randomPhysCircuit(seed, 5, 40)
		return WeightedDepth(c, arch.UniformDurations()) == c.Depth()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBarrierSynchronises(t *testing.T) {
	// h q0; barrier q0,q1; h q1 -> q1's H cannot start before the barrier,
	// which waits for q0's H.
	c := circuit.New(2).H(0).Barrier(0, 1).H(1)
	s := ASAP(c, sc())
	if s.Makespan != 2 {
		t.Errorf("makespan = %d, want 2", s.Makespan)
	}
	last := s.Gates[len(s.Gates)-1]
	if last.Gate.Op != circuit.OpH || last.Start != 1 {
		t.Errorf("post-barrier H starts at %d, want 1", last.Start)
	}
}

func TestScheduleValidateCatchesOverlap(t *testing.T) {
	s := &Schedule{
		NumQubits: 2,
		Gates: []ScheduledGate{
			{Gate: circuit.New2Q(circuit.OpCX, 0, 1), Start: 0, Duration: 2},
			{Gate: circuit.New1Q(circuit.OpH, 1), Start: 1, Duration: 1},
		},
		Makespan: 2,
	}
	if err := s.Validate(sc()); err == nil {
		t.Error("overlapping schedule accepted")
	}
}

func TestScheduleValidateCatchesWrongDuration(t *testing.T) {
	s := &Schedule{
		NumQubits: 1,
		Gates:     []ScheduledGate{{Gate: circuit.New1Q(circuit.OpH, 0), Start: 0, Duration: 7}},
		Makespan:  7,
	}
	if err := s.Validate(sc()); err == nil {
		t.Error("wrong duration accepted")
	}
}

func TestBusyCycles(t *testing.T) {
	c := circuit.New(2).H(0).CX(0, 1)
	s := ASAP(c, sc())
	busy := s.BusyCycles()
	if busy[0] != 3 || busy[1] != 2 {
		t.Errorf("BusyCycles = %v, want [3 2]", busy)
	}
}

func TestScheduleStartsSorted(t *testing.T) {
	c := randomPhysCircuit(7, 6, 80)
	s := ASAP(c, sc())
	for i := 1; i < len(s.Gates); i++ {
		if s.Gates[i].Start < s.Gates[i-1].Start {
			t.Fatal("schedule gates not sorted by start")
		}
	}
}

func TestScheduleString(t *testing.T) {
	c := circuit.New(2).CX(0, 1)
	s := ASAP(c, sc())
	if got := s.String(); !strings.Contains(got, "makespan 2") || !strings.Contains(got, "cx") {
		t.Errorf("String() = %q", got)
	}
}

// Property: makespan is bounded below by the busiest qubit and above by the
// serial sum of all durations.
func TestMakespanBounds(t *testing.T) {
	f := func(seed int64) bool {
		c := randomPhysCircuit(seed, 5, 60)
		s := ASAP(c, sc())
		busy := s.BusyCycles()
		maxBusy, total := 0, 0
		for _, b := range busy {
			if b > maxBusy {
				maxBusy = b
			}
		}
		for _, sg := range s.Gates {
			total += sg.Duration
		}
		return s.Makespan >= maxBusy && s.Makespan <= total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// randomPhysCircuit builds a deterministic random circuit for property tests.
func randomPhysCircuit(seed int64, qubits, n int) *circuit.Circuit {
	s := uint64(seed)*2685821657736338717 + 0xB5297A4D
	next := func(mod int) int {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return int(s % uint64(mod))
	}
	c := circuit.New(qubits)
	for i := 0; i < n; i++ {
		switch next(4) {
		case 0:
			c.H(next(qubits))
		case 1:
			c.T(next(qubits))
		case 2:
			a := next(qubits)
			b := next(qubits)
			if a == b {
				b = (b + 1) % qubits
			}
			c.CX(a, b)
		default:
			a := next(qubits)
			b := next(qubits)
			if a == b {
				b = (b + 1) % qubits
			}
			c.Swap(a, b)
		}
	}
	return c
}

func TestGanttRendering(t *testing.T) {
	c := circuit.New(3).H(0).CX(0, 1).Swap(1, 2).Measure(0, 0)
	s := ASAP(c, sc())
	g := s.Gantt(40)
	for _, want := range []string{"q0", "q1", "q2", "#", "C", "h", "M", "cycles"} {
		if !strings.Contains(g, want) {
			t.Errorf("Gantt missing %q in:\n%s", want, g)
		}
	}
	// Unused qubits are omitted.
	c2 := circuit.New(5).H(0)
	g2 := ASAP(c2, sc()).Gantt(10)
	if strings.Contains(g2, "q4") {
		t.Error("idle qubit row rendered")
	}
	// Degenerate cases do not panic.
	if got := (&Schedule{NumQubits: 1}).Gantt(10); !strings.Contains(got, "empty") {
		t.Errorf("empty schedule rendering: %q", got)
	}
	if got := s.Gantt(0); !strings.Contains(got, "empty") {
		t.Errorf("zero width rendering: %q", got)
	}
}

func TestGanttWidthCap(t *testing.T) {
	c := circuit.New(1).H(0) // makespan 1
	g := ASAP(c, sc()).Gantt(100)
	// A single 1-cycle gate cannot paint more than one column.
	if strings.Count(g, "h") != 1 {
		t.Errorf("width not capped to makespan:\n%s", g)
	}
}
