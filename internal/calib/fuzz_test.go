package calib

import (
	"math"
	"testing"

	"codar/internal/arch"
	"codar/internal/circuit"
	"codar/internal/schedule"
)

// fuzzSnapshot encodes s, mutated by edit first.
func fuzzSnapshot(dev *arch.Device, edit func(*Snapshot)) []byte {
	s := Synthetic(dev, 1)
	edit(s)
	data, err := s.Encode()
	if err != nil {
		panic(err)
	}
	return data
}

// FuzzCalibrationSnapshot feeds arbitrary bytes through the path an
// uploaded calibration takes: Parse, Hash, then Validate against Tokyo.
// Rejection is fine; panicking is not. A snapshot that validates must give
// a cost model, and a success estimate on a small schedule that is a
// finite probability.
//
// CI runs this with -fuzztime 30s; locally:
//
//	go test -run FuzzCalibrationSnapshot -fuzz FuzzCalibrationSnapshot -fuzztime 30s ./internal/calib/
func FuzzCalibrationSnapshot(f *testing.F) {
	dev := arch.IBMQ20Tokyo()
	f.Add(fuzzSnapshot(dev, func(*Snapshot) {}))
	f.Add(fuzzSnapshot(dev, func(s *Snapshot) { s.Qubits = s.Qubits[:5] }))
	f.Add(fuzzSnapshot(dev, func(s *Snapshot) { s.Edges = s.Edges[1:] }))
	f.Add(fuzzSnapshot(dev, func(s *Snapshot) { s.Edges = append(s.Edges, s.Edges[0]) }))
	f.Add(fuzzSnapshot(dev, func(s *Snapshot) { s.Edges[0].A, s.Edges[0].B = 0, 19 }))
	f.Add(fuzzSnapshot(dev, func(s *Snapshot) { s.Edges[3].A, s.Edges[3].B = s.Edges[3].B, s.Edges[3].A }))
	f.Add(fuzzSnapshot(dev, func(s *Snapshot) { s.Qubits[2].Error1Q = 1.5 }))
	f.Add(fuzzSnapshot(dev, func(s *Snapshot) { s.Qubits[7].ReadoutError = -0.1 }))
	f.Add(fuzzSnapshot(dev, func(s *Snapshot) { s.Qubits[4].T1 = -3 }))
	f.Add(fuzzSnapshot(dev, func(s *Snapshot) { s.Edges[5].Error2Q = maxError }))
	f.Add(fuzzSnapshot(dev, func(s *Snapshot) { s.Qubits[0].T1, s.Qubits[0].T2 = 1e-300, 0 }))
	f.Add(fuzzSnapshot(dev, func(s *Snapshot) { s.Device = "ibmq_melbourne" }))
	f.Add([]byte(`{"device":"","qubits":null,"edges":[{"a":-1,"b":-2}]}`))
	f.Add([]byte(`{"qubits":[{"t1":1e308}],"edges":[]}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[]`))

	// A small compliant schedule touching single-qubit, two-qubit, SWAP
	// and measure terms.
	c := circuit.New(dev.NumQubits)
	c.H(0).CX(0, 1).Swap(1, 6).RZ(0.5, 6).Measure(6, 0)
	sched := schedule.ASAP(c, dev.Durations)

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		if h := s.Hash(); h != s.Hash() {
			t.Fatalf("Hash is not stable: %s", h)
		}
		if s.Validate(dev) != nil {
			return
		}
		if _, err := s.CostModel(dev, 0); err != nil {
			t.Fatalf("validated snapshot: CostModel: %v", err)
		}
		p, err := s.Success(sched, dev)
		if err != nil {
			t.Fatalf("validated snapshot: Success: %v", err)
		}
		if math.IsNaN(p) || p < 0 || p > 1 {
			t.Fatalf("validated snapshot: Success = %v, want a probability", p)
		}
	})
}
