package qasm

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"codar/internal/testutil"
)

// doubling returns a program of levels gate definitions, each applying the
// one before it twice, and one application of the last: it expands to
// 2^levels gates.
func doubling(levels int) string {
	var b strings.Builder
	b.WriteString("OPENQASM 2.0;\nqreg q[2];\ngate g0 a, b { cx a, b; }\n")
	for i := 1; i <= levels; i++ {
		fmt.Fprintf(&b, "gate g%d a, b { g%d a, b; g%d b, a; }\n", i, i-1, i-1)
	}
	fmt.Fprintf(&b, "g%d q[0], q[1];\n", levels)
	return b.String()
}

// frontEndAlloc runs both front ends over src and reports the bytes each
// allocated, with one P so that no OS thread starts inside the window.
func frontEndAlloc(src string) (parse, stream uint64, perr, serr error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, perr = Parse(src)
	runtime.ReadMemStats(&m1)
	_, serr = drainStream(src)
	runtime.ReadMemStats(&m2)
	return m1.TotalAlloc - m0.TotalAlloc, m2.TotalAlloc - m1.TotalAlloc, perr, serr
}

// TestExpansionBoundedByInput: a program of 40 doubling definitions, under
// 2 KB, would expand to 2^40 gates. Both front ends stop it once it has
// cost 2^19 plus one per byte read, with the application's line, within
// 256 MB of allocation; a small doubling program still parses.
func TestExpansionBoundedByInput(t *testing.T) {
	src := doubling(40)
	parse, stream, perr, serr := frontEndAlloc(src)
	// The bound counts the bytes through the application's semicolon.
	want := fmt.Sprintf("qasm: line 44: program applies more than %d gates (%d plus one per input byte)", workBase+len(src)-1, workBase)
	for name, err := range map[string]error{"Parse": perr, "Stream": serr} {
		if err == nil || err.Error() != want {
			t.Errorf("%s: err = %v, want %q", name, err, want)
		}
	}
	if !testutil.RaceEnabled {
		for name, got := range map[string]uint64{"Parse": parse, "Stream": stream} {
			if got > 256<<20 {
				t.Errorf("%s allocated %d MB rejecting a %d-byte program, want < 256 MB", name, got>>20, len(src))
			}
		}
	}
	t.Logf("rejected %d bytes after allocating %.1f MB (Parse) and %.1f MB (Stream)", len(src), float64(parse)/(1<<20), float64(stream)/(1<<20))

	c, err := Parse(doubling(10))
	if err != nil || c.Len() != 1<<10 {
		t.Fatalf("doubling(10): %v, %v gates", err, c)
	}
	checkStreamMatchesParse(t, doubling(10))
}

// TestExpansionBoundCountsDefinitions: definitions that emit nothing still
// count, so a fan-out of empty bodies is work the bound stops.
func TestExpansionBoundCountsDefinitions(t *testing.T) {
	var b strings.Builder
	b.WriteString("qreg q[1];\ngate e0 a { }\n")
	for i := 1; i <= 40; i++ {
		fmt.Fprintf(&b, "gate e%d a { e%d a; e%d a; }\n", i, i-1, i-1)
	}
	b.WriteString("e40 q[0];\nh q[0];\n")
	src := b.String()
	if _, err := Parse(src); err == nil || !strings.HasPrefix(err.Error(), "qasm: line 43: program applies more than") {
		t.Fatalf("err = %v, want the work bound at line 43", err)
	}
	checkStreamMatchesParse(t, src)
}

// TestExpansionBoundGrowsWithInput: the bound is per byte read, so a long
// program of plain gates, and broadcasts over a full register, stay legal.
func TestExpansionBoundGrowsWithInput(t *testing.T) {
	var b strings.Builder
	b.WriteString("qreg q[65536];\n")
	for b.Len() < 1<<20 {
		b.WriteString("h q;\n") // 65,536 gates per 5 bytes
	}
	src := b.String()
	_, err := Parse(src)
	if err == nil || !strings.Contains(err.Error(), "program applies more than") {
		t.Fatalf("broadcasts past the bound: err = %v", err)
	}
	checkStreamMatchesParse(t, src)
	// 8 full broadcasts are 2^19 gates; with the bytes read they fit.
	src = "qreg q[65536];\n" + strings.Repeat("h q;\n", 8)
	c, err := Parse(src)
	if err != nil || c.Len() != 8<<16 {
		t.Fatalf("8 broadcasts: %v", err)
	}
}

// manyRegisters returns n one-qubit registers and a classical one, then
// gates applications on the last, each with a two-qubit gate to the first.
func manyRegisters(n, gates int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "qreg r%d[1];\n", i)
	}
	b.WriteString("creg c[1];\n")
	for i := 0; i < gates; i++ {
		fmt.Fprintf(&b, "h r%d[0];\ncx r0[0],r%d[0];\n", n-1, n-1)
	}
	return b.String()
}

// TestManyRegistersLinear: register lookups go through an index once a
// program declares more than a few registers, so 65,536 registers and
// 20,000 statements on the last of them parse in well under 2 s (the
// lookups were quadratic), in both front ends.
func TestManyRegistersLinear(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("-race slows the parser past the time bound")
	}
	src := manyRegisters(maxQubits, 10_000)
	start := time.Now()
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := drainStream(src); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("parsing %d registers took %v, want < 2s", maxQubits, d)
	}
	if c.NumQubits != maxQubits || c.Len() != 20_000 || c.Gates[1].Qubits[0] != 0 || c.Gates[1].Qubits[1] != maxQubits-1 {
		t.Fatalf("got %d qubits, %d gates, gate 1 %v", c.NumQubits, c.Len(), c.Gates[1])
	}
}

// TestRegisterIndexKeepsRules: past the scan limit, the index keeps the
// single namespace and every message.
func TestRegisterIndexKeepsRules(t *testing.T) {
	head := manyRegisters(2*regScan, 0)
	for src, want := range map[string]string{
		head + "qreg r3[1];\n":             `register "r3" redeclared`,
		head + "creg r3[1];\n":             `register "r3" redeclared`,
		head + "qreg c[2];\n":              `register "c" redeclared`,
		head + "h c[0];\n":                 `unknown quantum register "c"`,
		head + "measure r1 -> r2;\n":       `unknown classical register "r2"`,
		head + "h r99[0];\n":               `unknown quantum register "r99"`,
		head + "h r15[1];\n":               `index 1 out of range for "r15"[1]`,
		head + "cx r15[0],r15[0];\n":       `circuit: cx uses qubit 15 twice`,
		head + "qreg s[65521];\nh s[0];\n": `register "s" pushes the program past 65536 qubits`,
	} {
		_, err := Parse(src)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("err = %v, want %q", err, want)
		}
		checkStreamMatchesParse(t, src)
	}
	c, err := Parse(head + "cx r15[0],r2[0];\n")
	if err != nil || c.Gates[0].Qubits[0] != 15 || c.Gates[0].Qubits[1] != 2 {
		t.Fatalf("indexed operands: %v, %v", err, c)
	}
}

// TestExpressionNestingCapped: an expression nested past maxExprDepth is
// rejected with its line, in applications and gate bodies alike, before
// the recursive descent can exhaust the stack; the cap itself parses.
func TestExpressionNestingCapped(t *testing.T) {
	nest := func(n int, open, close string) string {
		return strings.Repeat(open, n) + "1" + strings.Repeat(close, n)
	}
	want := fmt.Sprintf("qasm: line 2: expression nested deeper than %d levels", maxExprDepth)
	for name, expr := range map[string]string{
		"parentheses": nest(200_000, "(", ")"),
		"calls":       nest(200_000, "sin(", ")"),
		"signs":       nest(200_000, "-", ""),
		"exponents":   nest(200_000, "2^", ""),
		"at cap":      nest(maxExprDepth, "(", ")"),
	} {
		for _, src := range []string{
			"qreg q[1];\nrz(" + expr + ") q[0];\n",
			"qreg q[1];\ngate g a { rz(" + expr + ") a; }\ng q[0];\n",
		} {
			if _, err := Parse(src); err == nil || err.Error() != want {
				t.Errorf("%s: err = %v, want %q", name, err, want)
			}
			checkStreamMatchesParse(t, src)
		}
	}
	// maxExprDepth levels (a sign and the parentheses inside it) parse,
	// and evaluate without recursion.
	src := "qreg q[1];\nrz(-" + nest(maxExprDepth-2, "(", ")") + ") q[0];\ngate g(t) a { rz(" + nest(maxExprDepth-1, "(", "+t)") + ") a; }\ng(1) q[0];\n"
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if got := []float64{c.Gates[0].Params[0], c.Gates[1].Params[0]}; got[0] != -1 || got[1] != maxExprDepth {
		t.Fatalf("params %v, want [-1 %d]", got, maxExprDepth)
	}
	checkStreamMatchesParse(t, src)
}
