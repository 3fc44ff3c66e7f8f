package qasm

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"codar/internal/circuit"
	"codar/internal/testutil"
	"codar/internal/workloads"
)

func parse(t *testing.T, src string) *circuit.Circuit {
	t.Helper()
	c, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return c
}

func TestTokenizer(t *testing.T) {
	toks, err := tokenize(`OPENQASM 2.0; // comment
cx q[0],q[1]; rz(-pi/4) q[2]; measure q[0] -> c[0];`)
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tk := range toks {
		if tk.kind != tokEOF {
			texts = append(texts, tk.text)
		}
	}
	want := []string{"OPENQASM", "2.0", ";", "cx", "q", "[", "0", "]", ",", "q", "[", "1", "]", ";",
		"rz", "(", "-", "pi", "/", "4", ")", "q", "[", "2", "]", ";",
		"measure", "q", "[", "0", "]", "->", "c", "[", "0", "]", ";"}
	if len(texts) != len(want) {
		t.Fatalf("token count %d, want %d: %v", len(texts), len(want), texts)
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, texts[i], want[i])
		}
	}
}

func TestTokenizerErrors(t *testing.T) {
	if _, err := tokenize("h q[0]; @"); err == nil {
		t.Error("bad character accepted")
	}
	if _, err := tokenize(`include "unterminated`); err == nil {
		t.Error("unterminated string accepted")
	}
}

func TestTokenizerScientificNotation(t *testing.T) {
	toks, err := tokenize("rz(1.5e-3) q[0];")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, tk := range toks {
		if tk.kind == tokNumber && tk.text == "1.5e-3" {
			found = true
		}
	}
	if !found {
		t.Error("scientific literal not scanned as one number")
	}
}

func TestParseBasicProgram(t *testing.T) {
	c := parse(t, `
OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
creg c[3];
h q[0];
cx q[0],q[1];
cx q[1],q[2];
measure q[0] -> c[0];
`)
	if c.NumQubits != 3 || c.NumClbits != 3 {
		t.Fatalf("sizes %d/%d", c.NumQubits, c.NumClbits)
	}
	if c.Len() != 4 {
		t.Fatalf("gate count %d", c.Len())
	}
	if c.Gates[0].Op != circuit.OpH || c.Gates[1].Op != circuit.OpCX || c.Gates[3].Op != circuit.OpMeasure {
		t.Error("gate sequence mismatch")
	}
}

func TestParseParameterExpressions(t *testing.T) {
	cases := []struct {
		src  string
		want float64
	}{
		{"rz(pi) q[0];", math.Pi},
		{"rz(-pi/2) q[0];", -math.Pi / 2},
		{"rz(3*pi/4) q[0];", 3 * math.Pi / 4},
		{"rz(2^3) q[0];", 8},
		{"rz(2^(1+1)) q[0];", 4},
		{"rz(sin(pi/2)) q[0];", 1},
		{"rz(cos(0)) q[0];", 1},
		{"rz(sqrt(4)) q[0];", 2},
		{"rz(1+2*3) q[0];", 7},
		{"rz((1+2)*3) q[0];", 9},
		{"rz(-2^2) q[0];", -4}, // unary minus binds looser than ^
		{"rz(0.5e1) q[0];", 5},
	}
	for _, tc := range cases {
		c := parse(t, "qreg q[1];\n"+tc.src)
		got := c.Gates[0].Params[0]
		if math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s => %g, want %g", tc.src, got, tc.want)
		}
	}
}

func TestParseUserDefinedGate(t *testing.T) {
	c := parse(t, `
OPENQASM 2.0;
qreg q[2];
gate mygate(theta) a, b {
  h a;
  cx a, b;
  rz(theta/2) b;
  cx a, b;
}
mygate(pi) q[0], q[1];
`)
	if c.Len() != 4 {
		t.Fatalf("inlined gate count %d, want 4", c.Len())
	}
	if c.Gates[2].Op != circuit.OpRZ || math.Abs(c.Gates[2].Params[0]-math.Pi/2) > 1e-12 {
		t.Errorf("parameter substitution broken: %v", c.Gates[2])
	}
	if c.Gates[1].Qubits[0] != 0 || c.Gates[1].Qubits[1] != 1 {
		t.Errorf("argument binding broken: %v", c.Gates[1])
	}
}

func TestParseNestedGateDefs(t *testing.T) {
	c := parse(t, `
qreg q[3];
gate inner a, b { cx a, b; }
gate outer a, b, c { inner a, b; inner b, c; }
outer q[0], q[1], q[2];
`)
	if c.Len() != 2 || c.Gates[0].Op != circuit.OpCX || c.Gates[1].Qubits[0] != 1 {
		t.Errorf("nested expansion broken: %v", c.Gates)
	}
}

func TestParseRecursiveGateRejected(t *testing.T) {
	_, err := Parse(`
qreg q[2];
gate loop a, b { loop a, b; }
loop q[0], q[1];
`)
	if err == nil || !strings.Contains(err.Error(), "deep") {
		t.Errorf("recursive definition not caught: %v", err)
	}
}

func TestParseBroadcast(t *testing.T) {
	c := parse(t, `
qreg q[4];
h q;
`)
	if c.Len() != 4 {
		t.Fatalf("broadcast expanded to %d gates, want 4", c.Len())
	}
	for i, g := range c.Gates {
		if g.Op != circuit.OpH || g.Qubits[0] != i {
			t.Errorf("broadcast gate %d = %v", i, g)
		}
	}
}

func TestParseBroadcastTwoRegisters(t *testing.T) {
	c := parse(t, `
qreg a[2];
qreg b[2];
cx a, b;
`)
	if c.Len() != 2 {
		t.Fatalf("cx broadcast count %d", c.Len())
	}
	if c.Gates[0].Qubits[0] != 0 || c.Gates[0].Qubits[1] != 2 {
		t.Errorf("flat offsets wrong: %v", c.Gates[0])
	}
	if c.Gates[1].Qubits[0] != 1 || c.Gates[1].Qubits[1] != 3 {
		t.Errorf("flat offsets wrong: %v", c.Gates[1])
	}
}

func TestParseBroadcastMeasure(t *testing.T) {
	c := parse(t, `
qreg q[3];
creg c[3];
measure q -> c;
`)
	if c.Len() != 3 {
		t.Fatalf("measure broadcast count %d", c.Len())
	}
	for i, g := range c.Gates {
		if g.Op != circuit.OpMeasure || g.Qubits[0] != i || g.Cbit != i {
			t.Errorf("measure %d = %v", i, g)
		}
	}
}

func TestParseBarrier(t *testing.T) {
	c := parse(t, `
qreg q[3];
barrier q[0], q[2];
barrier q;
`)
	if len(c.Gates[0].Qubits) != 2 || len(c.Gates[1].Qubits) != 3 {
		t.Errorf("barrier spans: %v / %v", c.Gates[0].Qubits, c.Gates[1].Qubits)
	}
}

func TestParseMultipleQregsFlattened(t *testing.T) {
	c := parse(t, `
qreg a[2];
qreg b[3];
x a[1];
x b[0];
`)
	if c.NumQubits != 5 {
		t.Fatalf("NumQubits = %d", c.NumQubits)
	}
	if c.Gates[0].Qubits[0] != 1 || c.Gates[1].Qubits[0] != 2 {
		t.Errorf("offsets wrong: %v", c.Gates)
	}
}

func TestParseAliases(t *testing.T) {
	c := parse(t, `
qreg q[3];
U(0.1,0.2,0.3) q[0];
CX q[0], q[1];
cu1(pi/8) q[0], q[2];
ccx q[0], q[1], q[2];
`)
	wantOps := []circuit.Op{circuit.OpU3, circuit.OpCX, circuit.OpCP, circuit.OpCCX}
	for i, op := range wantOps {
		if c.Gates[i].Op != op {
			t.Errorf("gate %d = %v, want %v", i, c.Gates[i].Op, op)
		}
	}
}

func TestParseOpaqueSkipped(t *testing.T) {
	c := parse(t, `
qreg q[1];
opaque mystery(a, b) x, y;
h q[0];
`)
	if c.Len() != 1 {
		t.Errorf("opaque declaration leaked gates: %d", c.Len())
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"no qreg", "h q[0];"},
		{"unknown reg", "qreg q[2]; h r[0];"},
		{"index out of range", "qreg q[2]; h q[5];"},
		{"unknown gate", "qreg q[2]; warp q[0];"},
		{"arity", "qreg q[2]; cx q[0];"},
		{"duplicate operand", "qreg q[2]; cx q[0],q[0];"},
		{"param count", "qreg q[1]; rz() q[0];"},
		{"measure mismatch", "qreg q[2]; creg c[1]; measure q -> c;"},
		{"if unsupported", "qreg q[1]; creg c[1]; if (c==1) x q[0];"},
		{"redeclared", "qreg q[2]; qreg q[2]; h q[0];"},
		{"late qreg", "qreg q[2]; h q[0]; qreg r[2];"},
		{"zero size", "qreg q[0]; h q[0];"},
		{"missing semicolon", "qreg q[2]\nh q[0];"},
		{"unterminated gate", "qreg q[1]; gate foo a { h a;"},
		{"unbound param", "qreg q[1]; gate foo a { rz(theta) a; } foo q[0];"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Parse(tc.src); err == nil {
				t.Errorf("accepted: %s", tc.src)
			}
		})
	}
}

func TestWriteBasic(t *testing.T) {
	c := circuit.NewNamed("demo", 2)
	c.H(0).CX(0, 1).RZ(math.Pi/4, 1).Measure(1, 0).Barrier(0, 1)
	out := Write(c)
	for _, want := range []string{
		"OPENQASM 2.0;", "qreg q[2];", "creg c[1];",
		"h q[0];", "cx q[0],q[1];", "measure q[1] -> c[0];", "barrier q[0],q[1];",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Write missing %q in:\n%s", want, out)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		c := randomCircuit(seed)
		back, err := Parse(Write(c))
		if err != nil {
			t.Logf("round-trip parse: %v", err)
			return false
		}
		back.Name = c.Name
		return c.Equal(back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestParseQFTFragment parses a ScaffCC-style 4-qubit QFT fragment like
// the paper's Fig 2(b).
func TestParseQFTFragment(t *testing.T) {
	c := parse(t, `
OPENQASM 2.0;
include "qelib1.inc";
qreg q[4];
h q[0];
cu1(pi/2) q[1],q[0];
h q[1];
t q[1];
cx q[0],q[2];
cu1(pi/4) q[2],q[0];
cx q[0],q[3];
`)
	if c.Len() != 7 {
		t.Fatalf("gate count %d", c.Len())
	}
	ops := c.CountOps()
	if ops[circuit.OpCP] != 2 || ops[circuit.OpCX] != 2 || ops[circuit.OpH] != 2 || ops[circuit.OpT] != 1 {
		t.Errorf("op histogram: %v", ops)
	}
	// The fragment lowers cleanly for mapping.
	low := circuit.Decompose(c)
	if !circuit.IsLowered(low) {
		t.Error("decomposed fragment still compound")
	}
}

// randomCircuit builds a deterministic random circuit exercising the
// writer's full surface.
func randomCircuit(seed int64) *circuit.Circuit {
	s := uint64(seed)*0x9E3779B97F4A7C15 + 17
	next := func(mod int) int {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return int(s % uint64(mod))
	}
	c := circuit.New(5)
	for i := 0; i < 25; i++ {
		switch next(8) {
		case 0:
			c.H(next(5))
		case 1:
			c.T(next(5))
		case 2:
			c.RZ(float64(next(16))*0.131, next(5))
		case 3:
			c.U3(float64(next(7))*0.3, float64(next(7))*0.2, float64(next(7))*0.1, next(5))
		case 4:
			a := next(5)
			b := (a + 1 + next(4)) % 5
			c.CX(a, b)
		case 5:
			a := next(5)
			b := (a + 1 + next(4)) % 5
			c.CP(float64(next(8))*0.39, a, b)
		case 6:
			a := next(5)
			b := (a + 1 + next(4)) % 5
			c.Swap(a, b)
		default:
			c.Measure(next(5), next(5))
		}
	}
	return c
}

// qelib1 is the part of the standard OpenQASM 2.0 gate library
// (qelib1.inc) the IR has no built-in op for, as benchmark files inline it:
// cy, ch, crz, cu3 and cswap expand through the parser's gate inliner.
const qelib1 = `
gate u3g(theta,phi,lambda) q { U(theta,phi,lambda) q; }
gate cy a,b { sdg b; cx a,b; s b; }
gate ch a,b { h b; sdg b; cx a,b; h b; t b; cx a,b; t b; h b; s b; x b; s a; }
gate crz(lambda) a,b {
  u1(lambda/2) b;
  cx a,b;
  u1(-lambda/2) b;
  cx a,b;
}
gate cu3(theta,phi,lambda) c,t {
  u1((lambda-phi)/2) t;
  cx c,t;
  u3(-theta/2,0,-(phi+lambda)/2) t;
  cx c,t;
  u3(theta/2,phi,0) t;
}
gate cswap a,b,c { cx c,b; ccx a,b,c; cx c,b; }
gate rzzg(theta) a,b { cx a,b; u1(theta) b; cx a,b; }
`

func TestParseWithQelib1ExtendedGates(t *testing.T) {
	c, err := Parse(qelib1 + `
qreg q[3];
cy q[0],q[1];
ch q[1],q[2];
crz(pi/2) q[0],q[2];
cu3(0.1,0.2,0.3) q[0],q[1];
cswap q[0],q[1],q[2];
`)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() == 0 {
		t.Fatal("no gates produced")
	}
	// Everything must have expanded to IR-supported ops.
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, g := range c.Gates {
		if g.Op.NumQubits() == 0 && g.Op != circuit.OpBarrier {
			t.Errorf("unexpected op %v", g.Op)
		}
	}
}

func TestParseWithQelib1StillResolvesBuiltins(t *testing.T) {
	c, err := Parse(qelib1 + `
qreg q[2];
h q[0];
cx q[0],q[1];
`)
	if err != nil {
		t.Fatal(err)
	}
	if c.Gates[0].Op != circuit.OpH || c.Gates[1].Op != circuit.OpCX {
		t.Errorf("built-ins should shadow definitions: %v", c.Gates)
	}
}

// TestParserNeverPanics drives the parser with mutated inputs: malformed
// programs must produce errors, not panics.
func TestParserNeverPanics(t *testing.T) {
	base := `OPENQASM 2.0;
qreg q[4];
creg c[4];
gate foo(a) x, y { rz(a) x; cx x, y; }
h q[0];
foo(pi/2) q[0], q[1];
measure q -> c;
`
	mutate := func(s string, seed int64) string {
		b := []byte(s)
		r := uint64(seed)*0x9E3779B97F4A7C15 + 1
		next := func(mod int) int {
			r ^= r << 13
			r ^= r >> 7
			r ^= r << 17
			return int(r % uint64(mod))
		}
		for k := 0; k < 1+next(4); k++ {
			switch next(3) {
			case 0: // delete a byte
				if len(b) > 1 {
					i := next(len(b))
					b = append(b[:i], b[i+1:]...)
				}
			case 1: // duplicate a byte
				i := next(len(b))
				b = append(b[:i], append([]byte{b[i]}, b[i:]...)...)
			default: // replace with a random printable
				i := next(len(b))
				b[i] = byte(32 + next(95))
			}
		}
		return string(b)
	}
	f := func(seed int64) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("parser panicked on mutated input: %v", r)
			}
		}()
		_, _ = Parse(mutate(base, seed))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestSuiteQASMRoundTrip writes a sample of the benchmark suite as QASM
// and parses it back, checking gate-level equality.
func TestSuiteQASMRoundTrip(t *testing.T) {
	for _, name := range []string{"qft_8", "adder_2", "grover_4", "bv_8", "rand_8_g200"} {
		b, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		c := b.Circuit()
		back, err := Parse(Write(c))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		back.Name = c.Name
		if !c.Equal(back) {
			t.Errorf("%s: QASM round trip diverged", name)
		}
	}
}

// TestParseRejectsNonFiniteParams: a parameter that evaluates to ±Inf or
// NaN is a parse error with its line, at top level and inside gate-body
// expansion — the text form has no literal for it, so accepting it would
// produce output Parse rejects.
func TestParseRejectsNonFiniteParams(t *testing.T) {
	for _, src := range []string{
		"qreg q[1];\nh q[0];\nrz(2^2000) q[0];\n",
		"qreg q[1];\nh q[0];\nrz(-2^2000) q[0];\n",
		"qreg q[1];\nh q[0];\nu3(0, 0*2^2000, 0) q[0];\n",
		"qreg q[1];\nh q[0];\nrz(sin(2^2000)) q[0];\n",
		"qreg q[1];\ngate g(a) x { rz(a*a) x; }\ng(1e200) q[0];\n",
		"qreg q[1];\ngate g(a) x { h x; rz(a) x; }\ngate f(b) x { g(b^b) x; }\nf(1000) q[0];\n",
	} {
		_, err := Parse(src)
		if err == nil {
			t.Errorf("accepted non-finite parameter:\n%s", src)
			continue
		}
		last := strings.Count(strings.TrimSuffix(src, "\n"), "\n") + 1
		if want := fmt.Sprintf("qasm: line %d: ", last); !strings.HasPrefix(err.Error(), want) || !strings.Contains(err.Error(), "parameter evaluates to") {
			t.Errorf("error %q: want prefix %q and the non-finite value", err, want)
		}
		if _, serr := drainStream(src); serr == nil || serr.Error() != err.Error() {
			t.Errorf("Stream error %v, Parse error %v", serr, err)
		}
	}
	// Large but finite values still parse and round-trip.
	c := parse(t, "qreg q[1];\nrz(1/2^2000) q[0];\nrz(1e300) q[0];\n")
	if back := parse(t, Write(c)); !back.Equal(c) {
		t.Fatalf("round trip diverged:\n%s", Write(c))
	}
}

// TestEvalErrorsCarryOnePrefix: evaluator errors read "qasm: line N: ...",
// not "qasm: line N: qasm: ...".
func TestEvalErrorsCarryOnePrefix(t *testing.T) {
	for src, want := range map[string]string{
		"qreg q[1];\nrz(Inf) q[0];\n":                            `qasm: line 2: unbound parameter "Inf"`,
		"qreg q[1];\nrz(1/0) q[0];\n":                            "qasm: line 2: division by zero",
		"qreg q[1];\ngate g a { rz(t) a; }\ng q[0];\n":           `qasm: line 3: gate "g": unbound parameter "t"`,
		"qreg q[1];\ngate g(t) a { rz(ln(t)) a; }\ng(0) q[0];\n": `qasm: line 3: gate "g": ln of non-positive value`,
	} {
		if _, err := Parse(src); err == nil || err.Error() != want {
			t.Errorf("Parse(%q) error %v, want %q", src, err, want)
		}
	}
}

// parseAlloc parses src and reports the bytes that allocated, with one P
// so that no OS thread starts inside the window.
func parseAlloc(src string) (uint64, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Parse(src)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, err
}

// TestParseReservesGatesOnce: Parse sizes its gate slice once from the
// statement count instead of growing it by doubling, and junk that is
// nothing but statement ends never makes it reserve more than a valid body
// of the same length fills.
func TestParseReservesGatesOnce(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("-race perturbs allocation counts")
	}
	const size = 1 << 20
	valid := "qreg q[1];\n" + strings.Repeat("x q[0];\n", size/8)
	got, err := parseAlloc(valid)
	if err != nil {
		t.Fatal(err)
	}
	if per := float64(got) / float64(len(valid)); per > 12 {
		t.Fatalf("a valid %d-byte body allocated %.1f B per input byte, want <= 12", len(valid), per)
	}
	junk := "qreg q[1]; x q[0];" + strings.Repeat(";", size)
	junkGot, err := parseAlloc(junk)
	if err == nil {
		t.Fatal("a body of bare statement ends parsed")
	}
	if junkGot > got {
		t.Fatalf("the rejected %d-byte body allocated %d bytes, more than the valid body's %d", len(junk), junkGot, got)
	}
	t.Logf("valid %.1f B/byte, rejected %.1f B/byte", float64(got)/float64(len(valid)), float64(junkGot)/float64(len(junk)))
}
