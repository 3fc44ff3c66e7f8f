package qasm

import (
	"testing"

	"codar/internal/circuit"
)

// parseSeeds are FuzzParseQASM's seed inputs.
var parseSeeds = []string{
	"OPENQASM 2.0;\nqreg q[4];\ncreg c[4];\nh q[0];\ncx q[0],q[1];\nmeasure q -> c;\n",
	"qreg q[2];\nu3(pi/2,0,pi) q[0];\nrz(-1.5e-3) q[1];\ncx q[0],q[1];\n",
	"qreg q[3];\ngate foo(a) x, y { rz(a) x; cx x, y; }\nfoo(pi/4) q[0], q[2];\n",
	"qreg q[2];\nbarrier q;\nreset q[0];\nswap q[0],q[1];\n",
	"include \"qelib1.inc\";\nqreg r[1];\nopaque noise q;\nt r[0];\n",
	"qreg q[99999999999];\nh q[0];\n",
	"gate rec a { rec a; }\nqreg q[1];\nrec q[0];\n",
	"OPENQASM 2.0 qreg q[",
	// Small accepted cases of the shapes the parser's bounds stop: doubling
	// definitions, more registers than the lookup scans, deep nesting.
	"qreg q[2];\ngate g0 a, b { cx a, b; }\ngate g1 a, b { g0 a, b; g0 b, a; }\ngate g2 a, b { g1 a, b; g1 b, a; }\ng2 q[0], q[1];\n",
	"qreg a[1];qreg b[1];qreg c[1];qreg d[1];qreg e[1];qreg f[1];qreg g[1];qreg h[1];qreg i[2];creg m[2];\ncx i[1],a[0];\nmeasure i -> m;\n",
	"qreg q[1];\nrz(-((((((((((1+pi))))))))))^2) q[0];\ngate r(t) a { rz(sin(((((t)))))) a; }\nr(-(-(-1))) q[0];\n",
}

// FuzzParseQASM feeds arbitrary byte strings to the parser. Two invariants:
// the parser must never panic (malformed input is an error, full stop), and
// any program it accepts must survive the same pipeline the service runs —
// Validate, Decompose, DAG construction, Depth — and round-trip through
// Write/Parse into an equal circuit.
//
// CI runs this with -fuzztime 30s (see .github/workflows); locally:
//
//	go test -run FuzzParseQASM -fuzz FuzzParseQASM -fuzztime 30s ./internal/qasm/
func FuzzParseQASM(f *testing.F) {
	for _, src := range parseSeeds {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		c, err := Parse(src) // must not panic; errors are fine
		if err != nil {
			return
		}
		// Accepted programs obey the parser's own bounds.
		if c.NumQubits <= 0 || c.NumQubits > maxQubits {
			t.Fatalf("accepted circuit with %d qubits (cap %d)", c.NumQubits, maxQubits)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("accepted circuit fails Validate: %v", err)
		}
		// Bound the deep checks: huge register declarations with few gates
		// are legal, but running the full pipeline over them per fuzz
		// iteration is wasted time.
		if c.NumQubits > 4096 || len(c.Gates) > 4096 {
			return
		}
		low := circuit.Decompose(c)
		if !circuit.IsLowered(low) {
			t.Fatalf("Decompose left compound gates: %v", low.CountOps())
		}
		if d := c.Depth(); d < 0 || d > len(c.Gates) {
			t.Fatalf("depth %d out of range for %d gates", d, len(c.Gates))
		}
		var rev circuit.SoA
		rev.LoadReversed(circuit.NewSoA(c))
		out := Write(c)
		back, err := Parse(out)
		if err != nil {
			t.Fatalf("Write output rejected: %v\n%s", err, out)
		}
		back.Name = c.Name
		if !c.Equal(back) {
			t.Fatalf("round trip diverged:\n%s", out)
		}
	})
}

// streamSeeds are FuzzStreamQASM's seed inputs.
var streamSeeds = []string{
	"OPENQASM 2.0;\nqreg q[4];\ncreg c[4];\nh q[0];\ncx q[0],q[1];\nmeasure q -> c;\n",
	"qreg q[3];\ncx\n  q[0],\n  q[2];\n",
	"OPENQASM 2.0;\r\nqreg q[2];\r\nh q[0];\r\ncx q[0],q[1];",
	"qreg q[2];\ngate foo(t) a, b { rz(t) a; cx a, b; }\nfoo(pi/4) q[0], q[1];\n",
	"qreg q[2];\nh q[0];\ncx q[0];\n",                // arity error after a gate
	"qreg q[2];\nh q[0];\n\"unterminated\nh q[1];\n", // lex error after a gate
	"qreg q[2];\ncreg c[1];\nmeasure q[0] -> c[0];\nif (c == 1) x q[1];\n",
	"include \"qelib1.inc\";\nqreg r[1];\nopaque noise q;\nt r[0];\n",
	"gate rec A{}qreg q[1];rec q;", // past FuzzParseQASM crasher
	"OPENQASM 2.0 qreg q[",
}

// FuzzStreamQASM differentially fuzzes the streaming front end against the
// batch parser: for every input, Stream (over the whole source and one
// byte per Read) and Parse must reach the same verdict with the same error
// text, and on accept the stream must yield the identical gate sequence
// and register totals (checkStreamMatchesParse). Neither side
// may panic. Seeds cover the shapes where the two lexers could plausibly
// diverge — statements split across lines, CRLF endings, missing trailing
// newline, errors surfacing after gates have already been emitted — plus
// past parser crashers.
//
// CI runs this with -fuzztime 30s (see .github/workflows); locally:
//
//	go test -run FuzzStreamQASM -fuzz FuzzStreamQASM -fuzztime 30s ./internal/qasm/
func FuzzStreamQASM(f *testing.F) {
	for _, src := range streamSeeds {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		checkStreamMatchesParse(t, src)
	})
}
