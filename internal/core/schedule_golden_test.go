package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"codar/internal/arch"
	"codar/internal/core"
	"codar/internal/experiments"
	"codar/internal/sabre"
)

// goldenScheduleHashes pin, per evaluation device, the sha256 of CODAR's
// timed schedule on every Fig 8 pair: each scheduled gate's op, qubits,
// params, cbit, start and duration, then the run's makespan, SWAP count
// and cycle count. The Fig 8 pins measure only the ASAP weighted depth of
// the output, so these are what pin CODAR's own start times.
var goldenScheduleHashes = map[string]string{
	"ibm-q16-melbourne":   "9c5d7bf0e722b1c3bb544567c36b3e490ae790761b00dda174bc9e91c442c417",
	"enfield-6x6":         "fdf7069e3d384898e2041b85df5b57eeb42f2268270b43ae30f244e112bc1928",
	"ibm-q20-tokyo":       "5ac7c58f6bfc28ecd53468df500f692c2d30e1fcb9428aa4332dd081d095614f",
	"google-q54-sycamore": "7519745abde39ed78e1094eef19efb6a28d566da95dce2efcaf2a920178f2fc4",
}

// TestScheduleGoldenFig8 maps every Fig 8 pair the way the speedup pins do
// (SABRE's reverse-traversal layout at experiments.Seed, default options)
// and compares each device's schedule hash with the recorded one.
func TestScheduleGoldenFig8(t *testing.T) {
	if testing.Short() {
		t.Skip("full Fig 8 matrix in -short mode")
	}
	var got []string
	for _, dev := range arch.EvaluationDevices() {
		h := sha256.New()
		for _, b := range experiments.EligibleSuite(dev) {
			c := b.Circuit()
			initial, err := sabre.InitialLayout(c, dev, experiments.Seed, sabre.Options{})
			if err != nil {
				t.Fatalf("%s on %s: %v", b.Name, dev.Name, err)
			}
			res, err := core.Remap(c, dev, initial, core.Options{})
			if err != nil {
				t.Fatalf("%s on %s: %v", b.Name, dev.Name, err)
			}
			s := res.Schedule()
			fmt.Fprintf(h, "%s %d\n", b.Name, len(s.Gates))
			for _, sg := range s.Gates {
				g := sg.Gate
				fmt.Fprintf(h, "%d %v %v %d %d %d\n", g.Op, g.Qubits, g.Params, g.Cbit, sg.Start, sg.Duration)
			}
			fmt.Fprintf(h, "%d %d %d\n", res.Makespan, res.SwapCount, res.Cycles)
		}
		sum := hex.EncodeToString(h.Sum(nil))
		got = append(got, fmt.Sprintf("%q: %q,", dev.Name, sum))
		if want := goldenScheduleHashes[dev.Name]; sum != want {
			t.Errorf("%s: schedule sha256 %s, want %s", dev.Name, sum, want)
		}
	}
	if len(goldenScheduleHashes) != len(got) {
		t.Errorf("%d recorded hashes, %d devices", len(goldenScheduleHashes), len(got))
	}
	if t.Failed() {
		t.Logf("hashes:\n%s", strings.Join(got, "\n"))
	}
}
