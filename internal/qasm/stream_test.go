package qasm

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"
	"testing/iotest"

	"codar/internal/circuit"
	"codar/internal/testutil"
	"codar/internal/workloads"
)

// drainStream collects every gate a Stream over src yields, or the
// terminal error.
func drainStream(src string) (*circuit.Circuit, error) {
	return drain(strings.NewReader(src))
}

// drain collects every gate a Stream over r yields, or the terminal error.
func drain(r io.Reader) (*circuit.Circuit, error) {
	s, err := NewStream(r)
	if err != nil {
		return nil, err
	}
	c := &circuit.Circuit{NumQubits: s.NumQubits(), NumClbits: s.NumClbits()}
	for {
		g, err := s.Next()
		if err == io.EOF {
			// Clbits may have grown via measure statements.
			c.NumClbits = s.NumClbits()
			return c, nil
		}
		if err != nil {
			return nil, err
		}
		c.Gates = append(c.Gates, g)
	}
}

// checkStreamMatchesParse pins the streaming front end's contract: the
// same verdict as Parse, with the same error text, and on accept the
// identical gate sequence and register totals. The stream runs twice: over
// the whole source, and one byte per Read. With one byte buffered at a
// time, none of the parser's buffer shortcuts can fire, so the second run
// compares them with the token path.
func checkStreamMatchesParse(t *testing.T, src string) {
	t.Helper()
	want, werr := Parse(src)
	for _, in := range []struct {
		name string
		r    io.Reader
	}{
		{"whole", strings.NewReader(src)},
		{"one byte", iotest.OneByteReader(strings.NewReader(src))},
	} {
		got, gerr := drain(in.r)
		if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
			t.Fatalf("%s: verdict mismatch: Parse err=%v, Stream err=%v\nsource:\n%s", in.name, werr, gerr, src)
		}
		if werr != nil {
			continue
		}
		if got.NumQubits != want.NumQubits || got.NumClbits != want.NumClbits {
			t.Fatalf("%s: register mismatch: stream %d/%d, batch %d/%d",
				in.name, got.NumQubits, got.NumClbits, want.NumQubits, want.NumClbits)
		}
		if len(got.Gates) != len(want.Gates) {
			t.Fatalf("%s: gate count mismatch: stream %d, batch %d", in.name, len(got.Gates), len(want.Gates))
		}
		for i := range got.Gates {
			if !got.Gates[i].Equal(want.Gates[i]) {
				t.Fatalf("%s: gate %d mismatch: stream %v, batch %v", in.name, i, got.Gates[i], want.Gates[i])
			}
		}
	}
}

func TestStreamMatchesParse(t *testing.T) {
	cases := []string{
		"OPENQASM 2.0;\nqreg q[3];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n",
		"OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\nh q;\nmeasure q -> c;\n",
		"qreg q[4];\nu3(0.1,0.2,0.3) q[2];\nccx q[0],q[1],q[2];\nbarrier q;\nreset q[3];\n",
		"OPENQASM 2.0;\nqreg a[2];\nqreg b[2];\ncx a[0],b[1];\nswap a[1],b[0];\n",
		"qreg q[2];\ngate foo(t) a, b { rz(t) a; cx a, b; rz(-t) b; }\nfoo(0.5) q[0], q[1];\n",
		"qreg q[1];\n// comment line\nrx(pi/2) q[0];\nrz(2*pi) q[0];\n",
		"qreg q[2];\ncreg c[1];\nmeasure q[0] -> c[0];\nif (c == 1) x q[1];\n",
		// Windows line endings and no trailing newline.
		"OPENQASM 2.0;\r\nqreg q[2];\r\nh q[0];\r\ncx q[0],q[1];",
		// Statement split across lines.
		"qreg q[3];\ncx\n  q[0],\n  q[2];\n",
		// Empty program bodies and header-only forms.
		"OPENQASM 2.0;\nqreg q[2];\n",
		// Rejections: lex error, parse error, missing register, bad index.
		"qreg q[2];\nh q[0];\n\"unterminated\nh q[1];\n",
		"qreg q[2];\nh q[0]\ncx q[0],q[1];\n",
		"OPENQASM 2.0;\nh q[0];\n",
		"qreg q[2];\nh q[5];\n",
		"qreg q[99999999];\nh q[0];\n",
		"",
		"OPENQASM 2.0;\n",
		"gate foo a { h a; }\n",
	}
	for i, src := range cases {
		src := src
		t.Run(strings.ReplaceAll(src[:min(len(src), 24)], "\n", "¶")+"#"+string(rune('a'+i)), func(t *testing.T) {
			checkStreamMatchesParse(t, src)
		})
	}
	for _, c := range frontEndCases(t) {
		t.Run(c.name, func(t *testing.T) { checkStreamMatchesParse(t, c.src) })
	}
}

func TestStreamHeaderKnownUpFront(t *testing.T) {
	src := "OPENQASM 2.0;\nqreg q[5];\ncreg c[3];\nh q[0];\ncx q[0],q[4];\n"
	s, err := NewStream(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if s.NumQubits() != 5 || s.NumClbits() != 3 {
		t.Fatalf("header = %d/%d, want 5/3", s.NumQubits(), s.NumClbits())
	}
	n := 0
	for {
		if _, err := s.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 2 || s.Gates() != 2 {
		t.Fatalf("gates = %d (counter %d), want 2", n, s.Gates())
	}
}

func TestStreamErrorSticky(t *testing.T) {
	src := "qreg q[2];\nh q[0];\ncx q[0];\n" // arity error mid-stream
	s, err := NewStream(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Next(); err != nil {
		t.Fatalf("first gate: %v", err)
	}
	_, err1 := s.Next()
	if err1 == nil || err1 == io.EOF {
		t.Fatalf("want terminal parse error, got %v", err1)
	}
	if _, err2 := s.Next(); err2 != err1 {
		t.Fatalf("error not sticky: %v then %v", err1, err2)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestStreamWriterWriteGateAllocs: after warm-up, rendering a gate reuses
// the writer's buffer and allocates nothing.
func TestStreamWriterWriteGateAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("-race perturbs allocation counts")
	}
	sw, err := NewStreamWriter(io.Discard, 20, 2)
	if err != nil {
		t.Fatal(err)
	}
	gates := []circuit.Gate{
		circuit.New2Q(circuit.OpCX, 3, 17),
		circuit.New1QP(circuit.OpU3, 9, 0.1, -2.5e-7, math.Pi),
		{Op: circuit.OpMeasure, Qubits: []int{4}, Cbit: 1},
		{Op: circuit.OpBarrier, Qubits: []int{0, 1, 2, 3, 19}},
		circuit.New1Q(circuit.OpReset, 11),
	}
	for _, g := range gates {
		if err := sw.WriteGate(g); err != nil { // warm-up
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() { _ = sw.WriteGate(g) }); n != 0 {
			t.Errorf("WriteGate(%v) made %.1f allocations per gate, want 0", g, n)
		}
	}
}

// TestStreamDecomposeAllocs: the front half of the streaming pipeline —
// Stream lowered by DecomposeSource — allocates at most once per 1,000
// gates: the lexer reads through one fixed buffer, the parser keeps its
// temporaries in scratch, gate slices come from arenas and base gates pass
// the lowering untouched.
func TestStreamDecomposeAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("-race perturbs allocation counts")
	}
	const gates = 100_000
	src := []byte(Write(workloads.Random(16, gates, 45, 3)))
	n := testing.AllocsPerRun(1, func() {
		s, err := NewStream(bytes.NewReader(src))
		if err != nil {
			t.Fatal(err)
		}
		ds := circuit.NewDecomposeSource(s)
		for {
			if _, err := ds.Next(); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
		}
	})
	if n > gates/1000 {
		t.Fatalf("Stream+DecomposeSource made %.0f allocations for %d gates, want <= %d", n, gates, gates/1000)
	}
}
