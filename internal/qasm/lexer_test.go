package qasm

import (
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"codar/internal/testutil"
)

// tokenize lexes the whole source with the production lexer, copying each
// token out of the lexer's buffer, in the reference lexer's token form.
func tokenize(src string) ([]refToken, error) {
	return lexAll(strings.NewReader(src), min(len(src)+1, lexBufSize))
}

// lexAll drains a lexer over r with the given buffer size.
func lexAll(r io.Reader, bufSize int) ([]refToken, error) {
	l := newLexer(r, bufSize)
	var out []refToken
	var t token
	for {
		if l.next(&t); l.err != nil {
			return nil, l.err
		}
		out = append(out, refToken{kind: t.kind, text: string(t.text), line: t.line})
		if t.kind == tokEOF {
			return out, nil
		}
	}
}

// checkLexMatchesReference pins the lexer to the reference lexer: the same
// tokens (kind, text, line) and the same verdict and message, whether the
// source arrives whole or one byte per Read (which moves every token
// through the buffer's refill path).
func checkLexMatchesReference(t *testing.T, src string) {
	t.Helper()
	want, werr := refTokenize(src)
	for _, r := range []io.Reader{strings.NewReader(src), iotest.OneByteReader(strings.NewReader(src))} {
		got, gerr := lexAll(r, lexBufSize)
		if errors.Is(gerr, ErrTokenTooLong) && len(src) > maxToken {
			continue // the reference lexer has no token cap
		}
		if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
			t.Fatalf("verdict mismatch: reference err=%v, lexer err=%v\nsource: %q", werr, gerr, src)
		}
		if len(got) != len(want) {
			t.Fatalf("token count: lexer %d, reference %d\nsource: %q", len(got), len(want), src)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("token %d: lexer %+v, reference %+v\nsource: %q", i, got[i], want[i], src)
			}
		}
	}
}

func TestLexMatchesReference(t *testing.T) {
	for _, src := range []string{
		"OPENQASM 2.0;\nqreg q[4];\ncreg c[4];\nh q[0];\ncx q[0],q[1];\nmeasure q -> c;\n",
		"rz(1.5e-3) q[0]; u3(.5,1e,2E+) q[1]; x == y -> z",
		"// only a comment",
		"h q[0]; // trailing\n//\n\n\"str ing\" ;",
		"include \"unterminated\nh q[0];",
		"include \"unterminated",
		"h q[0]; @",
		"\xc0\xe9t\xaa_9 q[\xb5];", // Latin-1 letters as identifier bytes
		"1.e5 .5 5. 7e-",
		"a\r\nb\tc",
		"",
	} {
		checkLexMatchesReference(t, src)
	}
}

// lexSeeds are FuzzLexQASM's seed inputs.
var lexSeeds = []string{
	"OPENQASM 2.0;\nqreg q[4];\ncreg c[4];\nh q[0];\ncx q[0],q[1];\nmeasure q -> c;\n",
	"rz(-1.5e-3) q[1]; u2(2e,3E+) q[0]; c == 1 -> d",
	"include \"qelib1.inc\";\n// comment\r\n\"open",
	"h q[0]; @ \xc0\xff",
}

// FuzzLexQASM differentially fuzzes the buffered byte lexer against the
// reference lexer (reflexer_test.go) — the check FuzzStreamQASM can no
// longer make, since Parse and Stream now share the lexer.
//
// CI runs this with -fuzztime 30s (see .github/workflows); locally:
//
//	go test -run FuzzLexQASM -fuzz FuzzLexQASM -fuzztime 30s ./internal/qasm/
func FuzzLexQASM(f *testing.F) {
	for _, src := range lexSeeds {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		checkLexMatchesReference(t, src)
	})
}

// TestLexTokenTooLong: a token one byte over the cap fails with the named
// error in both front ends; one at the cap is accepted.
func TestLexTokenTooLong(t *testing.T) {
	long := strings.Repeat("a", maxToken)
	ok := "qreg " + long + "[1];\nh " + long + "[0];\n"
	if _, err := Parse(ok); err != nil {
		t.Fatalf("Parse rejected a %d-byte identifier: %v", maxToken, err)
	}
	if _, err := drainStream(ok); err != nil {
		t.Fatalf("Stream rejected a %d-byte identifier: %v", maxToken, err)
	}
	bad := "qreg q[1];\nh q[0];\nh " + long + "a[0];\n"
	if _, err := Parse(bad); !errors.Is(err, ErrTokenTooLong) {
		t.Fatalf("Parse: err = %v, want ErrTokenTooLong", err)
	}
	if _, err := drainStream(bad); !errors.Is(err, ErrTokenTooLong) {
		t.Fatalf("Stream: err = %v, want ErrTokenTooLong", err)
	}
	if _, err := tokenize("rz(" + strings.Repeat("1", maxToken+1) + ")"); !errors.Is(err, ErrTokenTooLong) {
		t.Fatalf("long number: err = %v, want ErrTokenTooLong", err)
	}
}

// repeatReader yields the pattern over and over until n bytes are read.
type repeatReader struct {
	pattern string
	off, n  int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	if r.n <= 0 {
		return 0, io.EOF
	}
	k := 0
	for k < len(p) && k < r.n {
		c := copy(p[k:min(len(p), r.n)], r.pattern[r.off:])
		r.off = (r.off + c) % len(r.pattern)
		k += c
	}
	r.n -= k
	return k, nil
}

// TestLexLongLineBoundedByBuffer: a 32 MiB program on one line lexes in
// the memory of the lexer's buffer — a line is never held whole.
func TestLexLongLineBoundedByBuffer(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("-race perturbs allocation counts")
	}
	// TotalAlloc is process-wide: with more than one P, the scheduler may
	// start an OS thread inside the window, and its bookkeeping counts.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const size = 32 << 20
	r := &repeatReader{pattern: "h q[0];", n: size}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l := newLexer(r, lexBufSize)
	toks := 0
	var tk token
	for {
		if l.next(&tk); l.err != nil {
			t.Fatal(l.err)
		}
		if tk.kind == tokEOF {
			break
		}
		toks++
	}
	runtime.ReadMemStats(&after)
	// Whole statements, then the "h " that 32 MiB cuts the last one to.
	if want := size/len("h q[0];")*6 + 1; toks != want {
		t.Fatalf("lexed %d tokens, want %d", toks, want)
	}
	// The buffer plus the lexer value itself.
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(lexBufSize+256); got > limit {
		t.Fatalf("lexing a %d-byte line allocated %d bytes, want <= %d", size, got, limit)
	}
}
