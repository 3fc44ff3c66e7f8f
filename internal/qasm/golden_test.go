package qasm

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"codar/internal/circuit"
	"codar/internal/workloads"
)

// goldenFile holds, per named input, the verdicts of Parse and of a
// drained Stream: one line of name, Parse verdict and Stream verdict,
// tab-separated, each verdict quoted.
const goldenFile = "testdata/frontend.golden"

// verdict renders what a front end decided about one input: on accept the
// register totals and the sha256 of the circuit written back out, on
// reject the exact error text.
func verdict(c *circuit.Circuit, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("ok %d %d %x", c.NumQubits, c.NumClbits, sha256.Sum256([]byte(Write(c))))
}

// goldenCase is one named input of the front-end golden test.
type goldenCase struct {
	name, src string
}

// frontEndCases lists every input the golden test pins: the suite circuits
// written out (lowered and raw), the fuzz targets' seeds and committed
// crashers, one malformed program per error the lexer, parser and
// evaluator can return, and edge programs of the accepted language.
func frontEndCases(t *testing.T) []goldenCase {
	t.Helper()
	var cases []goldenCase
	add := func(name, src string) { cases = append(cases, goldenCase{name, src}) }
	for _, b := range workloads.Suite() {
		add("suite/"+b.Name, Write(b.Circuit()))
		add("suite-raw/"+b.Name, Write(b.Raw()))
	}
	for i, src := range parseSeeds {
		add(fmt.Sprintf("seed/parse/%d", i), src)
	}
	for i, src := range streamSeeds {
		add(fmt.Sprintf("seed/stream/%d", i), src)
	}
	for i, src := range lexSeeds {
		add(fmt.Sprintf("seed/lex/%d", i), src)
	}
	crashers, err := filepath.Glob("testdata/fuzz/*/*")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range crashers {
		add("crasher/"+filepath.Base(filepath.Dir(path))+"/"+filepath.Base(path), readCorpusString(t, path))
	}
	for _, c := range errorCases() {
		add("error/"+c.name, c.src)
	}
	for _, c := range edgeCases() {
		add("edge/"+c.name, c.src)
	}
	return cases
}

// readCorpusString decodes a one-string fuzz corpus file.
func readCorpusString(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" || !strings.HasPrefix(lines[1], "string(") {
		t.Fatalf("%s: not a one-string corpus file", path)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "string("), ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return s
}

// errorCases holds one malformed program per error return of lexer.go,
// parser.go and expr.go (the reader's own failures aside), and a few
// errors that surface after gates were emitted.
func errorCases() []goldenCase {
	long := strings.Repeat("a", maxToken+1)
	return []goldenCase{
		// lexer.go
		{"lex-unexpected-character", "qreg q[1];\nh q[0]; @\n"},
		{"lex-unterminated-string-line", "include \"qelib1.inc\nqreg q[1];\n"},
		{"lex-unterminated-string-eof", "qreg q[1];\ninclude \"qelib1.inc"},
		{"lex-long-identifier", "qreg q[1];\nh q[0];\nh " + long + "[0];\n"},
		{"lex-long-number", "qreg q[1];\nrz(" + strings.Repeat("1", maxToken+1) + ") q[0];\n"},
		{"lex-long-zero-number", "qreg q[1];\nrz(" + strings.Repeat("0", maxToken+1) + ") q[0];\n"},
		{"lex-long-zero-index", "qreg q[1];\nh q[" + strings.Repeat("0", maxToken+1) + "];\n"},
		{"lex-long-string", "include \"" + long + "\";\nqreg q[1];\n"},
		{"lex-error-after-gates", "qreg q[2];\nh q[0];\n\"unterminated\nh q[1];\n"},
		// parser.go: the token expectations
		{"expected-symbol", "qreg q[2]\nh q[0];\n"},
		{"expected-symbol-arrow", "qreg q[1];\ncreg c[1];\nmeasure q[0] c[0];\n"},
		{"expected-symbol-close-bracket", "qreg q[2];\nh q[0;\n"},
		{"expected-symbol-close-paren", "qreg q[1];\nrz(0.5 q[0];\n"},
		{"expected-symbol-brace", "qreg q[1];\ngate g a h a;\n"},
		{"expected-identifier", "qreg [2];\n"},
		{"expected-identifier-operand", "qreg q[1];\nh [0];\n"},
		{"expected-identifier-gate-param", "gate g(1) a { }\n"},
		{"expected-identifier-body", "gate g a { (a); }\n"},
		{"expected-integer", "qreg q[x];\n"},
		{"expected-integer-real", "qreg q[1.5];\n"},
		{"expected-integer-overflow", "qreg q[99999999999999999999];\n"},
		{"expected-integer-index", "qreg q[2];\nh q[1e0];\n"},
		{"expected-version", "OPENQASM x;\nqreg q[1];\n"},
		{"expected-statement", "qreg q[1];\n(h) q[0];\n"},
		{"expected-statement-number", "qreg q[1];\n3;\n"},
		{"include-no-file", "include qelib1;\nqreg q[1];\n"},
		{"if-unsupported", "qreg q[1];\ncreg c[1];\nif (c==1) x q[0];\n"},
		{"opaque-unterminated", "qreg q[1];\nopaque g a"},
		{"unterminated-gate-body", "qreg q[1];\ngate foo a { h a;"},
		// parser.go: program rules
		{"no-qreg-empty", ""},
		{"no-qreg-header", "OPENQASM 2.0;\n"},
		{"no-qreg-creg-only", "creg c[2];\n"},
		{"statement-before-qreg", "h q[0];\n"},
		{"measure-before-qreg", "creg c[1];\nmeasure q[0] -> c[0];\n"},
		{"register-size-zero", "qreg q[0];\n"},
		{"register-after-operation", "qreg q[2];\nh q[0];\nqreg r[2];\n"},
		{"register-redeclared", "qreg q[2];\nqreg q[2];\n"},
		{"register-redeclared-other-kind", "qreg q[2];\ncreg q[2];\n"},
		{"qubits-past-cap", "qreg a[65536];\nqreg b[1];\n"},
		{"qubits-past-cap-one", "qreg q[65537];\n"},
		{"clbits-past-cap", "qreg q[1];\ncreg c[65000];\ncreg d[537];\n"},
		{"unknown-quantum-register", "qreg q[2];\nh r[0];\n"},
		{"classical-as-quantum", "qreg q[1];\ncreg c[1];\nh c[0];\n"},
		{"unknown-classical-register", "qreg q[1];\ncreg c[1];\nmeasure q[0] -> d[0];\n"},
		{"quantum-as-classical", "qreg q[1];\ncreg c[1];\nmeasure q[0] -> q[0];\n"},
		{"index-out-of-range", "qreg q[2];\nh q[2];\n"},
		{"measure-size-mismatch", "qreg q[2];\ncreg c[1];\nmeasure q -> c;\n"},
		{"broadcast-size-mismatch", "qreg a[2];\nqreg b[3];\ncx a,b;\n"},
		{"recursive-definition", "qreg q[1];\ngate loop a { loop a; }\nloop q[0];\n"},
		{"builtin-too-deep", deepChain(101)},
		{"unknown-gate", "qreg q[1];\nwarp q[0];\n"},
		{"unknown-gate-in-body", "qreg q[1];\ngate g a { warp a; }\ng q[0];\n"},
		{"gate-param-count", "qreg q[1];\ngate g(t) a { rz(t) a; }\ng q[0];\n"},
		{"gate-qubit-count", "qreg q[2];\ngate g a { h a; }\ng q[0],q[1];\n"},
		{"unbound-argument", "qreg q[1];\ngate g a { h b; }\ng q[0];\n"},
		{"body-eval-error", "qreg q[1];\ngate g a { rz(1/0) a; }\ng q[0];\n"},
		// circuit.Circuit's gate check, as the parser reports it
		{"check-arity", "qreg q[2];\nh q[0];\ncx q[0];\n"},
		{"check-param-count", "qreg q[1];\nrz q[0];\n"},
		{"check-empty-params", "qreg q[1];\nrz() q[0];\n"},
		{"check-extra-params", "qreg q[1];\nh(0.5) q[0];\n"},
		{"check-duplicate-operand", "qreg q[2];\ncx q[0],q[0];\n"},
		{"check-barrier-duplicate", "qreg q[2];\nbarrier q[0],q[0];\n"},
		{"check-barrier-duplicate-in-body", "qreg q[2];\ngate g a,b { barrier a,b; }\ng q[1],q[1];\n"},
		{"check-measure-params", "qreg q[1];\nMEASURE(1) q[0];\n"}, // a directive in any case, so a parse error
		{"check-in-body", "qreg q[2];\ngate g a,b { cx a,b; }\ng q[1],q[1];\n"},
		// expr.go
		{"eval-non-finite", "qreg q[1];\nrz(2^2000) q[0];\n"},
		{"eval-non-finite-nan", "qreg q[1];\nu3(0, 0*2^2000, 0) q[0];\n"},
		{"eval-unbound-parameter", "qreg q[1];\nrz(theta) q[0];\n"},
		{"eval-division-by-zero", "qreg q[1];\nrz(1/0) q[0];\n"},
		{"eval-ln", "qreg q[1];\nrz(ln(0)) q[0];\n"},
		{"eval-sqrt", "qreg q[1];\nrz(sqrt(-1)) q[0];\n"},
		{"bad-number", "qreg q[1];\nrz(1e999) q[0];\n"},
		{"bad-number-negated", "qreg q[1];\nrz(-1e999) q[0];\n"},
		{"unexpected-token-in-expression", "qreg q[1];\nrz(*) q[0];\n"},
		{"unexpected-token-comma", "qreg q[1];\nrz(,) q[0];\n"},
		{"unexpected-end-in-expression", "qreg q[1];\nrz("},
		{"function-without-paren", "qreg q[1];\nrz(sin 1) q[0];\n"},
		{"function-unclosed", "qreg q[1];\nrz(sin(1) q[0];\n"},
		{"paren-unclosed", "qreg q[1];\nrz((1) q[0];\n"},
		{"number-then-identifier", "qreg q[1];\nrz(2pi) q[0];\n"},
		{"hex-number", "qreg q[1];\nrz(0x10) q[0];\n"},
		{"dangling-exponent", "qreg q[1];\nrz(2e) q[0];\n"},
	}
}

// deepChain returns a program whose last definition nests n definitions
// deep, the innermost applying the built-in h.
func deepChain(n int) string {
	var b strings.Builder
	b.WriteString("qreg q[1];\ngate g0 a { h a; }\n")
	for i := 1; i < n; i++ {
		fmt.Fprintf(&b, "gate g%d a { g%d a; }\n", i, i-1)
	}
	fmt.Fprintf(&b, "g%d q[0];\n", n-1)
	return b.String()
}

// opSpellings are the names circuit.OpByName resolves: every op's
// mnemonic and the ten aliases.
func opSpellings() []string {
	var names []string
	for o := circuit.Op(0); !strings.HasPrefix(o.Name(), "op("); o++ {
		names = append(names, o.Name())
	}
	return append(names, "cnot", "p", "phase", "u", "tof", "toffoli", "cphase", "cu1", "xx", "ms")
}

// edgeCases holds accepted-language corners: every op spelling in three
// cases, Latin-1 identifiers, definitions that shadow built-ins, spaces
// inside brackets, CRLF line ends, statements split across lines,
// parameter spellings and broadcasts.
func edgeCases() []goldenCase {
	var cases []goldenCase
	for _, name := range opSpellings() {
		op, ok := circuit.OpByName(name)
		if !ok {
			panic("unresolved spelling " + name)
		}
		n := op.NumQubits()
		if n == 0 {
			n = 2
		}
		mixed := []byte(name)
		for i := 0; i < len(mixed); i += 2 {
			mixed[i] = strings.ToUpper(string(mixed[i]))[0]
		}
		for i, spelling := range []string{name, strings.ToUpper(name), string(mixed)} {
			if i == 2 && spelling == strings.ToUpper(name) {
				continue // a one-letter name has no third case
			}
			var b strings.Builder
			b.WriteString("qreg q[3];\ncreg c[1];\n")
			b.WriteString(spelling)
			if k := op.NumParams(); k > 0 {
				b.WriteString("(")
				for i := 0; i < k; i++ {
					if i > 0 {
						b.WriteString(",")
					}
					fmt.Fprintf(&b, "%g", 0.25*float64(i+1))
				}
				b.WriteString(")")
			}
			b.WriteString(" ")
			for i := 0; i < n; i++ {
				if i > 0 {
					b.WriteString(",")
				}
				fmt.Fprintf(&b, "q[%d]", i)
			}
			b.WriteString(";\n")
			cases = append(cases, goldenCase{"spelling-" + spelling, b.String()})
		}
	}
	return append(cases, []goldenCase{
		{"latin1-register", "qreg \xe9t\xe0[2];\nh \xe9t\xe0[0];\ncx \xe9t\xe0[0],\xe9t\xe0[1];\nrz(0.5) \xe9t\xe0[1];\n"},
		{"latin1-gate", "qreg q[2];\ngate \xc0b\xff a,b { cx a,b; h \xb5; }\n\xc0b\xff q[0],q[1];\n"},
		{"latin1-gate-ok", "qreg q[2];\ngate \xc0b\xff \xb5,b { cx \xb5,b; h \xb5; }\n\xc0b\xff q[0],q[1];\n"},
		{"latin1-unknown-gate", "qreg q[1];\n\xe9\xe9 q[0];\n"},
		{"shadow-builtin", "qreg q[2];\ngate h a { x a; }\ngate CX a,b { cz a,b; }\nh q[0];\nCX q[0],q[1];\ncx q[1],q[0];\n"},
		{"shadow-builtin-in-body", "qreg q[2];\ngate h a { x a; }\ngate g a { h a; H a; }\ng q[1];\n"},
		{"definition-case-sensitive", "qreg q[1];\ngate Foo a { x a; }\nfoo q[0];\n"},
		{"definition-late-binding", "qreg q[1];\ngate a x { b x; }\ngate b x { h x; }\na q[0];\ngate b x { t x; }\na q[0];\n"},
		{"definition-params", "qreg q[2];\ngate g(a,b) x,y { rz(a*b) x; u3(a,-b,a^b) y; cx x,y; }\ng(0.5,-2) q[0],q[1];\ng(pi/2,2) q[1],q[0];\n"},
		{"definition-shadowed-param", "qreg q[2];\ngate g(a,a) x,x { rz(a) x; }\ng(1,2) q[0],q[1];\n"},
		{"definition-empty", "qreg q[1];\ngate nop a { }\nnop q[0];\nh q[0];\n"},
		{"spaces-in-brackets", "qreg q[2];\nh q[ 1 ];\ncx q[0] , q[1] ;\nrz( 0.5 ) q[0];\n"},
		{"tabs-and-spaces", "qreg q[2];\n\th\tq[0];\ncx  q[0],q[1];\nrz(0.5)q[0];\n"},
		{"crlf", "OPENQASM 2.0;\r\nqreg q[2];\r\nh q[0];\r\ncx q[0],q[1];\r\nrz(-0.5) q[1];\r\n"},
		{"split-statement", "qreg q[3];\ncx\n  q[0],\n  q[2];\nrz(\n0.5) q[1];\nu3(0.1,\n0.2,0.3) q[2]\n;\n"},
		{"comments", "qreg q[2]; // two\nh q[0];// after\ncx q[0],q[1]; // pair\n// end"},
		{"one-line", "qreg q[2];h q[0];cx q[0],q[1];rz(0.5) q[1];"},
		{"no-trailing-newline", "qreg q[2];\ncx q[0],q[1];"},
		{"numbers", "qreg q[1];\nrz(-0.5) q[0];\nrz(.5) q[0];\nrz(5.) q[0];\nrz(-.5) q[0];\nrz(1e-05) q[0];\nrz(2.5e+21) q[0];\nrz(1E5) q[0];\nrz(-0) q[0];\nrz(0) q[0];\nrz(007) q[0];\nrz(1e-400) q[0];\nrz(1.7976931348623157e308) q[0];\n"},
		{"number-spellings", "qreg q[1];\nrz(+1) q[0];\nrz(--1) q[0];\nrz(- 1) q[0];\nrz(2^-1) q[0];\nrz(-2^2) q[0];\nrz(pi) q[0];\nrz(-pi/4) q[0];\n"},
		{"leading-zero-index", "qreg q[10];\nh q[007];\ncx q[0009],q[00];\n"},
		{"broadcast", "qreg q[3];\nqreg r[3];\ncreg c[3];\nh q;\ncx q,r;\ncx q[0],r;\nrz(0.5) r;\nmeasure r -> c;\nreset q;\nbarrier q,r[1];\n"},
		{"multi-register", "qreg a[2];\nqreg b[3];\ncreg c[1];\ncreg d[2];\nx a[1];\ncx b[2],a[0];\nmeasure b[1] -> d[1];\n"},
		{"measure-reset-barrier", "qreg q[2];\ncreg c[2];\nmeasure q[0] -> c[1];\nreset q[1];\nbarrier q[0],q[1];\nbarrier q;\n"},
		{"opaque-and-include", "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[1];\nopaque noise(a) x;\nt q[0];\n"},
		{"registers-only", "OPENQASM 2.0;\nqreg q[4];\ncreg c[2];\n"},
		{"deep-chain-at-limit", deepChain(100)},
		{"qelib1", qelib1 + "qreg q[3];\ncy q[0],q[1];\nch q[1],q[2];\ncrz(pi/2) q[0],q[2];\ncu3(0.1,0.2,0.3) q[0],q[1];\ncswap q[0],q[1],q[2];\n"},
		{"token-at-cap", "qreg " + strings.Repeat("a", maxToken) + "[1];\nh " + strings.Repeat("a", maxToken) + "[0];\n"},
		{"zero-number-at-cap", "qreg q[1];\nrz(" + strings.Repeat("0", maxToken) + ") q[0];\n"},
		{"zero-index-at-cap", "qreg q[1];\nh q[" + strings.Repeat("0", maxToken) + "];\n"},
	}...)
}

// TestFrontEndGolden pins the front end's observable behaviour: for every
// input of frontEndCases, Parse and a drained Stream each give the
// recorded verdict, accept or the exact error text.
func TestFrontEndGolden(t *testing.T) {
	want := readGolden(t)
	cases := frontEndCases(t)
	seen := map[string]bool{}
	for _, c := range cases {
		if seen[c.name] {
			t.Fatalf("duplicate case name %s", c.name)
		}
		seen[c.name] = true
		w, ok := want[c.name]
		if !ok {
			t.Errorf("%s: no golden verdict", c.name)
			continue
		}
		if got := verdict(Parse(c.src)); got != w[0] {
			t.Errorf("%s: Parse verdict\n got  %s\n want %s", c.name, got, w[0])
		}
		if got := verdict(drainStream(c.src)); got != w[1] {
			t.Errorf("%s: Stream verdict\n got  %s\n want %s", c.name, got, w[1])
		}
	}
	if len(want) != len(cases) {
		t.Errorf("golden file has %d cases, the test %d", len(want), len(cases))
	}
}

// readGolden loads goldenFile into name -> {Parse verdict, Stream verdict}.
func readGolden(t *testing.T) map[string][2]string {
	t.Helper()
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string][2]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Split(sc.Text(), "\t")
		if len(fields) != 3 {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		var v [2]string
		for i := range v {
			if v[i], err = strconv.Unquote(fields[i+1]); err != nil {
				t.Fatalf("golden line %q: %v", sc.Text(), err)
			}
		}
		out[fields[0]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
