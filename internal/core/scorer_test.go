package core

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"codar/internal/arch"
	"codar/internal/circuit"
	"codar/internal/schedule"
)

// scorerOptions is the option grid the scoring-equivalence properties
// sweep. Every ranking variant is included (each reads the key components
// differently), both front engines (the scorer syncs off whichever front
// buffers are live), the ablations, and the event-queue cross-check.
func scorerOptions() []Options {
	return []Options{
		{},
		{naiveFront: true},
		{DisableCommutativity: true},
		{DisableHfine: true},
		{Lookahead: -1},
		{Lookahead: 3},
		{Window: 1},
		{Window: 7},
		{DeadlockStreak: 1},
		{checkEvents: true},
		{naiveFront: true, checkEvents: true},
	}
}

// TestRemapIdenticalToNaiveScore is the delta-scorer equivalence property:
// for randomized circuits, devices and option sets, Remap with the delta
// scorer produces byte-identical output (SwapCount, Makespan, full
// schedule, layouts, cycle counts) to Remap with the from-scratch pickBest
// scoring.
func TestRemapIdenticalToNaiveScore(t *testing.T) {
	devices := propDevices()
	optGrid := scorerOptions()
	f := func(seed int64) bool {
		dev := devices[int(uint64(seed)%uint64(len(devices)))]
		opts := optGrid[int(uint64(seed>>8)%uint64(len(optGrid)))]
		qubits := dev.NumQubits
		if qubits > 6 {
			qubits = 6
		}
		c := randCircuit(seed, qubits, 60)
		delta, err := Remap(c, dev, nil, opts)
		if err != nil {
			t.Logf("delta: %v", err)
			return false
		}
		naive := opts
		naive.naiveScore = true
		ref, err := Remap(c, dev, nil, naive)
		if err != nil {
			t.Logf("naive: %v", err)
			return false
		}
		if err := resultsIdentical(delta, ref); err != nil {
			t.Logf("opts %+v on %s: %v", opts, dev.Name, err)
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
	for _, opts := range scorerOptions() {
		for seed := int64(0); seed < 6; seed++ {
			dev := devices[int(seed)%len(devices)]
			qubits := dev.NumQubits
			if qubits > 7 {
				qubits = 7
			}
			c := randCircuit(seed*131+17, qubits, 80)
			delta, err := Remap(c, dev, nil, opts)
			if err != nil {
				t.Fatalf("opts %+v seed %d: %v", opts, seed, err)
			}
			naive := opts
			naive.naiveScore = true
			ref, err := Remap(c, dev, nil, naive)
			if err != nil {
				t.Fatalf("opts %+v seed %d: %v", opts, seed, err)
			}
			if err := resultsIdentical(delta, ref); err != nil {
				t.Fatalf("opts %+v seed %d on %s: %v", opts, seed, dev.Name, err)
			}
		}
	}
}

// TestRemapIdenticalToNaiveScoreOnBenchmarks pins the scorer equivalence
// on real workload shapes: deep commuting QFT chains (large fronts, the
// shapes with the most candidate rescoring) and a deadlock-prone
// antipodal-ring circuit (forceSwap and directRoute paths).
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
		for _, opts := range []Options{{}, {DeadlockStreak: 1, checkEvents: true}} {
			delta, err := Remap(cs.c, cs.dev, nil, opts)
			if err != nil {
				t.Fatal(err)
			}
			naive := opts
			naive.naiveScore = true
			ref, err := Remap(cs.c, cs.dev, nil, naive)
			if err != nil {
				t.Fatal(err)
			}
			if err := resultsIdentical(delta, ref); err != nil {
				t.Fatalf("%s / %s opts %+v: %v", cs.dev.Name, cs.c.Name, opts, err)
			}
		}
	}
}

// TestEmitMatchesStableSort: the ordered-insert emit path must reproduce
// exactly what the old final sort.SliceStable pass produced — sorted by
// start, equal starts in emission order — including on the out-of-order
// arrivals only directRoute generates in real runs. Each gate carries a
// unique Duration so stability violations are visible.
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
		sg := schedule.ScheduledGate{Start: start, Duration: i}
		r.emit(sg)
		ref = append(ref, sg)
	}
	sort.SliceStable(ref, func(i, j int) bool { return ref[i].Start < ref[j].Start })
	for i := range ref {
		if r.out[i].Start != ref[i].Start || r.out[i].Duration != ref[i].Duration {
			t.Fatalf("emit order diverges from stable sort at %d: %+v vs %+v", i, r.out[i], ref[i])
		}
	}
}

// BenchmarkDeltaScoreQFT16 isolates the swap-search cost with the delta
// scorer on the commutation-rich workload (compare against
// BenchmarkNaiveScoreQFT16 in one binary).
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

// BenchmarkNaiveScoreQFT16 is the retained reference scoring on the same
// workload.
func BenchmarkNaiveScoreQFT16(b *testing.B) {
	dev := arch.IBMQ20Tokyo()
	c := circuit.Decompose(qftLike(16))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Remap(c, dev, nil, Options{naiveScore: true}); err != nil {
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
		if _, err := Remap(c, dev, nil, Options{DeadlockStreak: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestScorerMatchesNaiveEveryPick cross-checks the delta scorer at every
// pick of full remapping runs: the winner must be pickBest's, and every
// cached part the scorer holds as valid, on every coupler and not only the
// candidates, must equal the from-scratch value — Hbasic under both
// metrics and Hlook exactly, Hfine up to the round's constant
// Σ|VD−HD| of the unswapped front. A missed invalidation shows up here
// even when it does not change the pick.
func TestScorerMatchesNaiveEveryPick(t *testing.T) {
	devices := append(propDevices(), arch.SycamoreQ54())
	for oi, opts := range scorerOptions() {
		if opts.naiveFront {
			continue // the scorer is indifferent to the front engine
		}
		for seed := int64(0); seed < 8; seed++ {
			dev := devices[int(seed)%len(devices)]
			run := opts
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
			r := newRemapper(circuit.Assemble(c), dev, arch.NewTrivialLayout(qubits, dev.NumQubits), run)
			var failure error
			picks := 0
			r.pickCheck = func(cands []swapCand, best int, progress bool) {
				if failure != nil {
					return
				}
				picks++
				failure = checkPick(r, cands, best, progress)
			}
			r.run(&cursor{})
			if failure != nil {
				t.Fatalf("opts %+v seed %d on %s, pick %d: %v", run, seed, dev.Name, picks, failure)
			}
			if picks == 0 {
				t.Fatalf("opts %+v seed %d on %s: the scorer never picked", run, seed, dev.Name)
			}
		}
	}
}

// checkPick compares one scorer pick, and the scorer's whole cache, with
// the reference heuristics.
func checkPick(r *remapper, cands []swapCand, best int, progress bool) error {
	if want, _, _ := r.pickBest(cands, r.front2q, progress); best != want {
		return fmt.Errorf("scorer picked %d, pickBest %d of %v", best, want, cands)
	}
	shift := 0
	if r.sc.wantFine {
		for _, i := range r.front2q {
			q1, q2 := r.soa.Pair(i)
			shift += fineDiff(r.dev, r.layout.Phys(q1), r.layout.Phys(q2))
		}
	}
	for id, e := range r.dev.Edges {
		c := swapCand{a: e[0], b: e[1], edge: id}
		got, valid := r.sc.parts[id], r.sc.valid[id]
		if valid&basicValid != 0 {
			if hb, hop := r.hBasic(c, r.front2q, r.distTab), r.hBasic(c, r.front2q, r.hopTab); got.hb != hb || got.hop != hop {
				return fmt.Errorf("edge %v: cached Hbasic %d/%d, reference %d/%d", e, got.hb, got.hop, hb, hop)
			}
		}
		if valid&lookValid != 0 {
			if hl := r.hLook(c); got.hl != hl {
				return fmt.Errorf("edge %v: cached Hlook %d, reference %d", e, got.hl, hl)
			}
		}
		if valid&fineValid != 0 {
			if hf := r.hFine(c, r.front2q) + shift; got.hf != hf {
				return fmt.Errorf("edge %v: cached Hfine %d, reference %d", e, got.hf, hf)
			}
		}
	}
	return nil
}
