package core

import (
	"sort"
	"testing"
	"testing/quick"

	"codar/internal/arch"
	"codar/internal/circuit"
	"codar/internal/schedule"
)

// scorerRows is the option grid the scoring-equivalence properties
// sweep. Every ranking variant is included (each reads the key components
// differently), the ablations and a deadlock streak of 1, which drives the
// forced picks.
func scorerRows() []row {
	return []row{
		{opts: Options{}},
		{opts: Options{DisableCommutativity: true}},
		{opts: Options{DisableHfine: true}},
		{opts: Options{Lookahead: -1}},
		{opts: Options{Lookahead: 3}},
		{opts: Options{Window: 1}},
		{opts: Options{Window: 7}},
		{streak: 1},
	}
}

// TestRemapIdenticalToNaiveScore is the delta-scorer equivalence property:
// for randomized circuits, devices and option rows, every pick the delta
// scorer makes in a full Remap is the one the from-scratch pickBest rule
// makes on the same state, and every cached score part equals its
// reference value. By induction over the run, the scorer makes exactly the
// mapping the reference scoring would.
func TestRemapIdenticalToNaiveScore(t *testing.T) {
	devices := propDevices()
	grid := scorerRows()
	f := func(seed int64) bool {
		dev := devices[int(uint64(seed)%uint64(len(devices)))]
		rw := grid[int(uint64(seed>>8)%uint64(len(grid)))]
		qubits := dev.NumQubits
		if qubits > 6 {
			qubits = 6
		}
		c := randCircuit(seed, qubits, 60)
		if _, err := remapObserved(c, dev, nil, rw.opts, rw.streak); err != nil {
			t.Logf("row %+v on %s: %v", rw, dev.Name, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestRemapIdenticalToNaiveScoreGrid sweeps the full option grid
// deterministically (quick.Check samples it randomly) on both a coordinate
// device (Hfine live) and a coordinate-free ring (Hfine zero, edge-index
// tie-breaks dominate).
func TestRemapIdenticalToNaiveScoreGrid(t *testing.T) {
	devices := []*arch.Device{arch.Grid("g33", 3, 3), arch.Ring(7), arch.IBMQ20Tokyo()}
	for _, rw := range scorerRows() {
		for seed := int64(0); seed < 6; seed++ {
			dev := devices[int(seed)%len(devices)]
			qubits := dev.NumQubits
			if qubits > 7 {
				qubits = 7
			}
			c := randCircuit(seed*131+17, qubits, 80)
			if _, err := remapObserved(c, dev, nil, rw.opts, rw.streak); err != nil {
				t.Fatalf("row %+v seed %d on %s: %v", rw, seed, dev.Name, err)
			}
		}
	}
}

// TestRemapIdenticalToNaiveScoreOnBenchmarks pins the scorer equivalence
// on real workload shapes: deep commuting QFT chains (large fronts, the
// shapes with the most candidate rescoring) and an antipodal-ring circuit,
// each at the default and the minimal deadlock streak.
func TestRemapIdenticalToNaiveScoreOnBenchmarks(t *testing.T) {
	type cse struct {
		dev *arch.Device
		c   *circuit.Circuit
	}
	ring := circuit.New(8)
	ring.CX(0, 4)
	ring.CX(1, 5)
	ring.CX(2, 6)
	ring.CX(3, 7)
	cases := []cse{
		{arch.IBMQ20Tokyo(), circuit.Decompose(qftLike(10))},
		{arch.Linear(10), circuit.Decompose(qftLike(10))},
		{arch.SycamoreQ54(), randCircuit(9, 16, 500)},
		{arch.Ring(8), ring},
	}
	for _, cs := range cases {
		for _, streak := range []int{0, 1} {
			if _, err := remapObserved(cs.c, cs.dev, nil, Options{}, streak); err != nil {
				t.Fatalf("%s / %s streak %d: %v", cs.dev.Name, cs.c.Name, streak, err)
			}
		}
	}
}

// TestEmitMatchesStableSort: the ordered-insert emit path must reproduce
// exactly what a final sort.SliceStable pass would produce — sorted by
// start, equal starts in emission order — including on the out-of-order
// arrivals only directRoute generates in real runs, and must move each
// gate together with its start. Each gate carries a unique Cbit so
// stability violations are visible.
func TestEmitMatchesStableSort(t *testing.T) {
	r := &remapper{}
	s := uint64(0xDECAFBAD)
	var ref []schedule.ScheduledGate
	for i := 0; i < 500; i++ {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		start := i / 3 // mostly non-decreasing...
		if s%7 == 0 {
			start += int(s % 11) // ...with occasional future emissions
		}
		g := circuit.Gate{Cbit: i}
		r.emit(g, start, 0)
		ref = append(ref, schedule.ScheduledGate{Gate: g, Start: start})
	}
	sort.SliceStable(ref, func(i, j int) bool { return ref[i].Start < ref[j].Start })
	if len(r.out) != len(ref) || len(r.starts) != len(ref) {
		t.Fatalf("emitted %d gates and %d starts, want %d", len(r.out), len(r.starts), len(ref))
	}
	for i := range ref {
		if r.starts[i] != ref[i].Start || r.out[i].Cbit != ref[i].Gate.Cbit {
			t.Fatalf("emit order diverges from stable sort at %d: gate %d at %d, want gate %d at %d",
				i, r.out[i].Cbit, r.starts[i], ref[i].Gate.Cbit, ref[i].Start)
		}
	}
}

// BenchmarkDeltaScoreQFT16 isolates the swap-search cost with the delta
// scorer on the commutation-rich workload.
func BenchmarkDeltaScoreQFT16(b *testing.B) {
	dev := arch.IBMQ20Tokyo()
	c := circuit.Decompose(qftLike(16))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Remap(c, dev, nil, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDirectRouteHeavyRing stresses the ordered-insert emit path:
// antipodal ring traffic with a minimal deadlock streak maximises
// out-of-order directRoute emissions.
func BenchmarkDirectRouteHeavyRing(b *testing.B) {
	dev := arch.Ring(16)
	c := circuit.New(16)
	for r := 0; r < 8; r++ {
		for a := 0; a < 16; a++ {
			c.CX(a, (a+8)%16)
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := newStreakRemapper(c, dev, nil, Options{}, 1)
		if err != nil {
			b.Fatal(err)
		}
		r.run(&cursor{})
		r.result(c.NumClbits)
	}
}

// TestScorerMatchesNaiveEveryPick observes full remapping runs on
// uncalibrated and calibrated metrics and requires the scorer to have
// picked at all, so that every row's picks were compared with the
// reference (checkPick).
func TestScorerMatchesNaiveEveryPick(t *testing.T) {
	devices := append(propDevices(), arch.SycamoreQ54())
	for oi, rw := range scorerRows() {
		for seed := int64(0); seed < 8; seed++ {
			dev := devices[int(seed)%len(devices)]
			run := rw.opts
			if seed%2 == 1 {
				weights := make([]float64, len(dev.Edges))
				for i := range weights {
					weights[i] = float64((i*7+int(seed))%13) / 5
				}
				cm, err := arch.NewCostModel(dev, weights)
				if err != nil {
					t.Fatal(err)
				}
				run.Cost = cm
			}
			qubits := min(dev.NumQubits, 9)
			c := randCircuit(seed*53+int64(oi), qubits, 300)
			r, err := newStreakRemapper(c, dev, nil, run, rw.streak)
			if err != nil {
				t.Fatal(err)
			}
			o := observe(r)
			r.run(&cursor{})
			if err := o.checked(r); err != nil {
				t.Fatalf("opts %+v streak %d seed %d on %s: %v", run, rw.streak, seed, dev.Name, err)
			}
			if o.picks == 0 {
				t.Fatalf("opts %+v streak %d seed %d on %s: the scorer never picked", run, rw.streak, seed, dev.Name)
			}
		}
	}
}
