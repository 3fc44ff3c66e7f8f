package placement

import (
	"testing"
	"testing/quick"

	"codar/internal/arch"
	"codar/internal/circuit"
	"codar/internal/core"
	"codar/internal/sabre"
	"codar/internal/schedule"
	"codar/internal/workloads"
)

func ghzChain(n int) *circuit.Circuit {
	c := circuit.New(n)
	c.H(0)
	for i := 0; i+1 < n; i++ {
		c.CX(i, i+1)
	}
	return c
}

func TestAllMethodsProduceValidLayouts(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	c := ghzChain(8)
	for _, m := range Methods() {
		l, err := Generate(m, circuit.Assemble(c), dev, 3, sabre.Options{})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if err := l.Validate(); err != nil {
			t.Errorf("%s: %v", m, err)
		}
		if l.NumLogical() != 8 || l.NumPhysical() != 20 {
			t.Errorf("%s: shape %d/%d", m, l.NumLogical(), l.NumPhysical())
		}
	}
	if _, err := Generate(Method("bogus"), circuit.Assemble(c), dev, 0, sabre.Options{}); err == nil {
		t.Error("unknown method accepted")
	}
}

// TestParseMethod: every method parses to itself, and an unknown name is
// rejected with the message Generate reports for it.
func TestParseMethod(t *testing.T) {
	for _, m := range Methods() {
		if got, err := ParseMethod(string(m)); got != m || err != nil {
			t.Errorf("ParseMethod(%q) = %q, %v", m, got, err)
		}
	}
	_, err := ParseMethod("bogus")
	const want = `placement: unknown method "bogus" (known: [dense random sabre-reverse trivial])`
	if err == nil || err.Error() != want {
		t.Errorf("ParseMethod(bogus) = %v, want %s", err, want)
	}
	if _, gerr := Generate("bogus", circuit.Assemble(ghzChain(2)), arch.Linear(3), 0, sabre.Options{}); gerr == nil || gerr.Error() != want {
		t.Errorf("Generate(bogus) = %v, want %s", gerr, want)
	}
}

func TestOversizedCircuitRejected(t *testing.T) {
	dev := arch.Linear(3)
	c := circuit.New(5)
	for _, m := range Methods() {
		if _, err := Generate(m, circuit.Assemble(c), dev, 0, sabre.Options{}); err == nil {
			t.Errorf("%s accepted an oversized circuit", m)
		}
	}
}

func TestTrivialIsIdentity(t *testing.T) {
	dev := arch.Linear(5)
	l, err := Generate(MethodTrivial, circuit.Assemble(circuit.New(3)), dev, 0, sabre.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 3; q++ {
		if l.Phys(q) != q {
			t.Errorf("Phys(%d) = %d", q, l.Phys(q))
		}
	}
}

func TestRandomSeedBehaviour(t *testing.T) {
	dev := arch.IBMQ16Melbourne()
	c := circuit.Assemble(circuit.New(8))
	a, _ := Generate(MethodRandom, c, dev, 1, sabre.Options{})
	b, _ := Generate(MethodRandom, c, dev, 1, sabre.Options{})
	if !a.Equal(b) {
		t.Error("same seed, different layouts")
	}
	d, _ := Generate(MethodRandom, c, dev, 2, sabre.Options{})
	if a.Equal(d) {
		t.Error("different seeds should give different layouts (overwhelmingly)")
	}
}

// TestDensePlacesChainContiguously: on a line device, a GHZ chain should
// be placed so that the total weighted distance of its interactions is
// near-minimal (every CX pair within distance ~2).
func TestDensePlacesChainContiguously(t *testing.T) {
	dev := arch.Linear(10)
	c := ghzChain(6)
	l, err := Dense(c, dev)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < 6; i++ {
		d := dev.Distance(l.Phys(i), l.Phys(i+1))
		if d > 3 {
			t.Errorf("chain pair (%d,%d) placed at distance %d", i, i+1, d)
		}
	}
}

// TestDenseBeatsRandomOnStructuredCircuits: the greedy placement should
// give CODAR no worse a starting point than a random one on structured
// workloads (measured by mapped weighted depth).
func TestDenseBeatsRandomOnStructuredCircuits(t *testing.T) {
	dev := arch.IBMQ16Melbourne()
	b, err := workloads.ByName("qft_8")
	if err != nil {
		t.Fatal(err)
	}
	c := b.Circuit()
	wd := func(l *arch.Layout) int {
		res, err := core.Remap(c, dev, l, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return schedule.WeightedDepth(res.Circuit, dev.Durations)
	}
	dense, err := Dense(c, dev)
	if err != nil {
		t.Fatal(err)
	}
	// Average a few random seeds to avoid a fluke comparison.
	randomTotal := 0
	const tries = 3
	for seed := int64(0); seed < tries; seed++ {
		r, err := Generate(MethodRandom, circuit.Assemble(c), dev, seed, sabre.Options{})
		if err != nil {
			t.Fatal(err)
		}
		randomTotal += wd(r)
	}
	denseWD := wd(dense)
	avgRandom := randomTotal / tries
	if denseWD > avgRandom*5/4 {
		t.Errorf("dense placement much worse than random: %d vs avg %d", denseWD, avgRandom)
	}
}

// Property: Dense always yields a valid injective layout, for random
// circuits across devices.
func TestDenseProperties(t *testing.T) {
	devices := []*arch.Device{arch.Linear(8), arch.Grid("g", 3, 3), arch.IBMQ20Tokyo()}
	f := func(seed int64) bool {
		dev := devices[int(uint64(seed)%uint64(len(devices)))]
		s := uint64(seed)*0x9E3779B97F4A7C15 + 3
		next := func(mod int) int {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			return int(s % uint64(mod))
		}
		n := 2 + next(6)
		c := circuit.New(n)
		for i := 0; i < 15; i++ {
			a := next(n)
			b := (a + 1 + next(n-1)) % n
			c.CX(a, b)
		}
		l, err := Dense(c, dev)
		if err != nil {
			return false
		}
		return l.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestDenseHandlesIdleQubits: logical qubits with no 2q interactions
// still get placed.
func TestDenseHandlesIdleQubits(t *testing.T) {
	dev := arch.Grid("g", 3, 3)
	c := circuit.New(5)
	c.CX(0, 1) // qubits 2..4 never interact
	l, err := Dense(c, dev)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(); err != nil {
		t.Error(err)
	}
}
