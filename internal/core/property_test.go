package core

import (
	"testing"
	"testing/quick"

	"codar/internal/arch"
	"codar/internal/circuit"
	"codar/internal/schedule"
)

// randCircuit builds a deterministic pseudo-random lowered circuit.
func randCircuit(seed int64, qubits, gates int) *circuit.Circuit {
	s := uint64(seed)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03
	next := func(mod int) int {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return int(s % uint64(mod))
	}
	c := circuit.New(qubits)
	for i := 0; i < gates; i++ {
		switch next(6) {
		case 0, 1:
			a := next(qubits)
			b := next(qubits)
			if a == b {
				b = (b + 1) % qubits
			}
			c.CX(a, b)
		case 2:
			c.H(next(qubits))
		case 3:
			c.T(next(qubits))
		case 4:
			c.RZ(float64(next(9))*0.125, next(qubits))
		default:
			a := next(qubits)
			b := next(qubits)
			if a == b {
				b = (b + 1) % qubits
			}
			c.CZ(a, b)
		}
	}
	return c
}

// propDevices is a mix of topologies exercising grids (with Hfine), lines,
// rings (no coords) and the real evaluation devices.
func propDevices() []*arch.Device {
	return []*arch.Device{
		arch.Linear(6),
		arch.Ring(7),
		arch.Grid("g33", 3, 3),
		arch.IBMQ5(),
		arch.IBMQ20Tokyo(),
	}
}

// TestRemapInvariants is the core correctness property: for random
// circuits on assorted devices, the CODAR output (1) is hardware
// compliant, (2) contains every input gate exactly once with qubits mapped
// through the layout in effect at its start time, (3) has a valid
// (non-overlapping) schedule, and (4) reports a makespan equal to
// re-scheduling its own output.
func TestRemapInvariants(t *testing.T) {
	devices := propDevices()
	f := func(seed int64) bool {
		dev := devices[int(uint64(seed)%uint64(len(devices)))]
		qubits := dev.NumQubits
		if qubits > 6 {
			qubits = 6
		}
		c := randCircuit(seed, qubits, 40)
		res, err := Remap(c, dev, nil, Options{})
		if err != nil {
			t.Logf("remap error: %v", err)
			return false
		}
		// (1) hardware compliance
		for _, sg := range res.Schedule().Gates {
			if sg.Gate.Op.TwoQubit() && !dev.Adjacent(sg.Gate.Qubits[0], sg.Gate.Qubits[1]) {
				t.Logf("non-compliant gate %v", sg.Gate)
				return false
			}
		}
		// (2) gate conservation: non-swap op histogram must match input.
		inOps := c.CountOps()
		outOps := map[circuit.Op]int{}
		for _, sg := range res.Schedule().Gates {
			if sg.Gate.Op != circuit.OpSwap {
				outOps[sg.Gate.Op]++
			}
		}
		for op, n := range inOps {
			if outOps[op] != n {
				t.Logf("op %v count %d != %d", op, outOps[op], n)
				return false
			}
		}
		swaps := 0
		for _, sg := range res.Schedule().Gates {
			if sg.Gate.Op == circuit.OpSwap {
				swaps++
			}
		}
		if swaps != res.SwapCount {
			t.Logf("swap count mismatch")
			return false
		}
		// (3) schedule validity
		if err := res.Schedule().Validate(dev.Durations); err != nil {
			t.Logf("schedule: %v", err)
			return false
		}
		// (4) self-consistent makespan: ASAP over the emitted sequence
		// cannot exceed the reported makespan (CODAR may leave gaps that
		// eager re-scheduling closes, but never the reverse).
		re := schedule.ASAP(res.Circuit, dev.Durations)
		if re.Makespan > res.Makespan {
			t.Logf("re-scheduled makespan %d > reported %d", re.Makespan, res.Makespan)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestRemapTerminatesOnAdversarialShapes drives dense all-to-all traffic
// through sparse topologies where deadlock forcing is most likely.
func TestRemapTerminatesOnAdversarialShapes(t *testing.T) {
	devs := []*arch.Device{arch.Linear(5), arch.Ring(5), arch.Grid("g23", 2, 3)}
	for _, dev := range devs {
		n := dev.NumQubits
		c := circuit.New(n)
		// Every ordered pair interacts: maximal routing pressure.
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if a != b {
					c.CX(a, b)
				}
			}
		}
		res, err := Remap(c, dev, nil, Options{})
		if err != nil {
			t.Fatalf("%s: %v", dev.Name, err)
		}
		if err := res.Schedule().Validate(dev.Durations); err != nil {
			t.Fatalf("%s: %v", dev.Name, err)
		}
		nCX := 0
		for _, sg := range res.Schedule().Gates {
			if sg.Gate.Op == circuit.OpCX {
				nCX++
			}
		}
		if nCX != n*(n-1) {
			t.Errorf("%s: %d CX out, want %d", dev.Name, nCX, n*(n-1))
		}
	}
}

// TestWindowDoesNotAffectCorrectness: tiny scan windows still produce
// compliant, complete outputs (just with less look-ahead).
func TestWindowDoesNotAffectCorrectness(t *testing.T) {
	dev := arch.Grid("g33", 3, 3)
	c := randCircuit(11, 6, 60)
	for _, w := range []int{1, 2, 8, 64, 1024} {
		res, err := Remap(c, dev, nil, Options{Window: w})
		if err != nil {
			t.Fatalf("window %d: %v", w, err)
		}
		nonSwap := 0
		for _, sg := range res.Schedule().Gates {
			if sg.Gate.Op != circuit.OpSwap {
				nonSwap++
			}
		}
		if nonSwap != c.Len() {
			t.Errorf("window %d: %d gates out, want %d", w, nonSwap, c.Len())
		}
	}
}

// TestDeterminism: two runs over the same input produce identical outputs.
func TestDeterminism(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	c := randCircuit(42, 6, 80)
	r1, err := Remap(c, dev, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Remap(c, dev, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Circuit.Equal(r2.Circuit) {
		t.Error("remapping is not deterministic")
	}
	if r1.Makespan != r2.Makespan || r1.SwapCount != r2.SwapCount {
		t.Error("metrics are not deterministic")
	}
}

// TestInputNotMutated: the input circuit must be untouched by remapping.
func TestInputNotMutated(t *testing.T) {
	dev := arch.Linear(4)
	c := circuit.New(4).CX(0, 3).H(1)
	snapshot := c.Clone()
	if _, err := Remap(c, dev, nil, Options{}); err != nil {
		t.Fatal(err)
	}
	if !c.Equal(snapshot) {
		t.Error("Remap mutated its input")
	}
}

// TestSwapChainEquivalence: tracking the layout through the output swaps
// and un-mapping each non-swap gate must recover the input gate multiset
// in an order consistent with the commutation rules.
func TestSwapChainEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		dev := arch.Grid("g", 2, 3)
		c := randCircuit(seed, 5, 30)
		res, err := Remap(c, dev, nil, Options{})
		if err != nil {
			return false
		}
		// Un-map: physical -> logical via evolving inverse layout.
		l := res.InitialLayout.Clone()
		var logical []circuit.Gate
		for _, sg := range res.Schedule().Gates {
			g := sg.Gate
			if g.Op == circuit.OpSwap {
				l.SwapPhysical(g.Qubits[0], g.Qubits[1])
				continue
			}
			lg := g.Remap(func(p int) int { return l.Log(p) })
			for _, q := range lg.Qubits {
				if q < 0 {
					return false // gate on an unoccupied physical qubit
				}
			}
			logical = append(logical, lg)
		}
		if len(logical) != c.Len() {
			return false
		}
		// The recovered sequence must be a commutation-respecting
		// reordering: greedily match each recovered gate against the
		// earliest unmatched input gate it can legally move ahead of.
		used := make([]bool, c.Len())
		for _, lg := range logical {
			matched := false
			for j, in := range c.Gates {
				if used[j] {
					continue
				}
				if in.Equal(lg) {
					used[j] = true
					matched = true
					break
				}
				// lg must commute with every unmatched earlier gate it
				// skips over.
				if !circuit.Commute(in, lg) {
					return false
				}
			}
			if !matched {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
