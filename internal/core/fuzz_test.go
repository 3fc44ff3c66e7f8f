package core

import (
	"testing"

	"codar/internal/verify"
)

// FuzzRemapObserved maps fuzzer-chosen random circuits with every
// reference observing the run. An input picks the circuit seed, a device
// of propDevices, 2 to min(8, device size) qubits, up to 200 gates, a row
// of scorerRows or frontierRows, and a deadlock streak of 1 or 3. No front,
// look-ahead set, pick or event answer may diverge from its reference, and
// the output must be hardware compliant and equivalent to the input from
// its initial layout.
func FuzzRemapObserved(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(6), uint16(200), uint8(0), false)
	f.Add(int64(44), uint8(1), uint8(5), uint16(120), uint8(7), true)
	f.Add(int64(3), uint8(2), uint8(7), uint16(150), uint8(9), false)
	f.Add(int64(9), uint8(0), uint8(4), uint16(90), uint8(14), true)
	devices := propDevices()
	rows := append(scorerRows(), frontierRows()...)
	f.Fuzz(func(t *testing.T, seed int64, devPick, qubitPick uint8, gatePick uint16, rowPick uint8, escape bool) {
		dev := devices[int(devPick)%len(devices)]
		qubits := 2 + int(qubitPick)%(min(8, dev.NumQubits)-1)
		gates := int(gatePick) % 201
		rw := rows[int(rowPick)%len(rows)]
		streak := DefaultDeadlockStreak
		if escape {
			streak = 1
		}
		c := randCircuit(seed, qubits, gates)
		res, err := remapObserved(c, dev, nil, rw.opts, streak)
		if err != nil {
			t.Fatalf("%+v, streak %d, %d qubits × %d gates on %s: %v", rw.opts, streak, qubits, gates, dev.Name, err)
		}
		if err := verify.Compliance(res.Circuit, dev); err != nil {
			t.Fatal(err)
		}
		if err := verify.Equivalence(c, res.Circuit, res.InitialLayout); err != nil {
			t.Fatal(err)
		}
	})
}
