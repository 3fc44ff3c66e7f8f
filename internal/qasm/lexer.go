// Package qasm implements an OpenQASM 2.0 frontend (lexer, recursive-
// descent parser with user-defined gate inlining, expression evaluator)
// and a writer, covering the language subset used by the paper's benchmark
// suites (IBM Qiskit, RevLib translations, ScaffCC and Quipper output).
package qasm

import (
	"fmt"
	"io"
	"unicode"
	"unsafe"
)

// tokenKind classifies lexer tokens.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber // integer or real literal
	tokString // "..."
	tokSymbol // punctuation and operators
)

// A symbol token carries one byte in token.sym: the symbol itself for the
// one-byte symbols, and these for the two-byte ones.
const (
	symArrow byte = '>' // "->"
	symEqual byte = '!' // "=="
)

// symText returns the source text of a symbol the parser expects.
func symText(sym byte) string {
	if sym == symArrow {
		return "->"
	}
	return string(rune(sym))
}

// lexBufSize is the lexer's buffer size for stream input. It is what
// bounds the lexer's memory: whitespace and comments of any length stream
// through the buffer, and only a token must fit in it whole.
const lexBufSize = 64 << 10

// maxToken bounds the length of one token in bytes, quotes included: the
// buffer less the three bytes a number's exponent check reads past its
// end, and one to spare.
const maxToken = lexBufSize - 4

// ErrTokenTooLong is returned (wrapped, with the line) for a token longer
// than maxToken bytes.
var ErrTokenTooLong = fmt.Errorf("token longer than %d bytes", maxToken)

// maxEmptyReads bounds consecutive (0, nil) reads before the lexer gives
// up with io.ErrNoProgress, as bufio does.
const maxEmptyReads = 100

// token is one lexical unit with its source line for diagnostics. text is
// a view into the lexer's buffer (for strings, without the quotes): it is
// valid only until the next call to next, so a parser that keeps a name
// past that copies it. sym is a symbol's byte, and zero for other kinds.
type token struct {
	kind tokenKind
	sym  byte
	line int
	text []byte
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// identStart and identPart classify bytes as the reference lexer always
// has: a byte is read as the rune of the same value, so bytes 0x80–0xFF
// are Latin-1 code points and some of them are letters.
var identStart, identPart [256]bool

func init() {
	for c := 0; c < 256; c++ {
		r := rune(c)
		identStart[c] = unicode.IsLetter(r) || r == '_'
		identPart[c] = identStart[c] || unicode.IsDigit(r)
	}
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isSymbol(c byte) bool {
	switch c {
	case '(', ')', '{', '}', '[', ']', ';', ',', '+', '-', '*', '/', '^', '=':
		return true
	}
	return false
}

// lexer scans OpenQASM source, for both Parse and Stream. A stream is read
// through one fixed buffer: no token spans a newline, but lines may be any
// length, and the buffer holds only the token being scanned, so memory is
// bounded by the buffer, not by the input. Parse's source is the buffer
// itself. Errors are sticky.
type lexer struct {
	r   io.Reader
	buf []byte
	// The current token starts at tok; pos is the scan position and
	// buf[pos:end] is read but not yet scanned. A refill keeps
	// buf[tok:end] and discards everything before it; base counts the
	// bytes discarded so far.
	tok, pos, end int
	base          int
	eof           bool
	err           error
	line          int
}

// newLexer returns a lexer reading r through a buffer of the given size,
// which must exceed the input's longest token by four bytes (lexBufSize
// does for any input).
func newLexer(r io.Reader, size int) *lexer {
	return &lexer{r: r, buf: make([]byte, size), line: 1}
}

// newSourceLexer returns a lexer over src held whole. Its buffer is src's
// own bytes, which it only reads: a lexer that starts at the end of its
// input never refills, and a refill is the only write to the buffer.
func newSourceLexer(src string) *lexer {
	return &lexer{buf: unsafe.Slice(unsafe.StringData(src), len(src)), end: len(src), eof: true, line: 1}
}

// offset returns how many bytes of input lie before the scan position.
func (l *lexer) offset() int { return l.base + l.pos }

// refill reads more input into the buffer after moving the current token
// to its front. It reports whether new bytes arrived; at end of input or on
// a read error it reports false, leaving the error in l.err.
func (l *lexer) refill() bool {
	if l.eof || l.err != nil {
		return false
	}
	if l.tok > 0 {
		l.end = copy(l.buf, l.buf[l.tok:l.end])
		l.pos -= l.tok
		l.base += l.tok
		l.tok = 0
	}
	if l.end == len(l.buf) {
		l.err = fmt.Errorf("qasm: line %d: %w", l.line, ErrTokenTooLong)
		return false
	}
	for i := 0; i < maxEmptyReads; i++ {
		n, err := l.r.Read(l.buf[l.end:])
		l.end += n
		if err == io.EOF {
			l.eof = true
		} else if err != nil {
			l.err = err
		}
		if n > 0 {
			return true
		}
		if err != nil {
			return false
		}
	}
	l.err = io.ErrNoProgress
	return false
}

// has reports whether the byte k past the scan position is available,
// reading more input as needed.
func (l *lexer) has(k int) bool {
	for l.pos+k >= l.end {
		if !l.refill() {
			return false
		}
	}
	return true
}

// fail records the lexer's terminal error and ends the token stream.
func (l *lexer) fail(t *token, err error) {
	l.err = err
	*t = token{line: l.line}
}

// next scans the next token into t, skipping whitespace and // comments.
// After an error, t is end of input and l.err holds the error.
func (l *lexer) next(t *token) {
	for l.err == nil {
		l.tok = l.pos
		if l.pos >= l.end && !l.has(0) {
			break
		}
		c := l.buf[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '/' && l.has(1) && l.buf[l.pos+1] == '/':
			for l.has(0) && l.buf[l.pos] != '\n' {
				l.pos++
				l.tok = l.pos
			}
		default:
			l.scan(t, c)
			return
		}
	}
	*t = token{line: l.line}
}

// scan reads the token starting with c at the scan position into t.
func (l *lexer) scan(t *token, c byte) {
	kind, sym := tokSymbol, c
	switch {
	case identStart[c]:
		kind, sym = tokIdent, 0
		l.pos++
		for l.pos-l.tok <= maxToken && (l.pos < l.end || l.has(0)) && identPart[l.buf[l.pos]] {
			l.pos++
		}
	case isDigit(c) || (c == '.' && l.has(1) && isDigit(l.buf[l.pos+1])):
		kind, sym = tokNumber, 0
		l.scanNumber()
	case c == '"':
		kind, sym = tokString, 0
		l.pos++
		for l.pos-l.tok <= maxToken && l.has(0) && l.buf[l.pos] != '"' {
			if l.buf[l.pos] == '\n' {
				l.fail(t, fmt.Errorf("qasm: line %d: unterminated string", l.line))
				return
			}
			l.pos++
		}
		if l.err == nil && l.pos-l.tok <= maxToken {
			if !l.has(0) {
				l.fail(t, fmt.Errorf("qasm: line %d: unterminated string", l.line))
				return
			}
			l.pos++ // closing quote
		}
	case c == '-' && l.has(1) && l.buf[l.pos+1] == '>':
		sym = symArrow
		l.pos += 2
	case c == '=' && l.has(1) && l.buf[l.pos+1] == '=':
		sym = symEqual
		l.pos += 2
	case isSymbol(c):
		l.pos++
	default:
		l.fail(t, fmt.Errorf("qasm: line %d: unexpected character %q", l.line, c))
		return
	}
	if l.err != nil {
		*t = token{line: l.line}
		return
	}
	if l.pos-l.tok > maxToken {
		l.fail(t, fmt.Errorf("qasm: line %d: %w", l.line, ErrTokenTooLong))
		return
	}
	t.kind, t.sym, t.line, t.text = kind, sym, l.line, l.buf[l.tok:l.pos]
	if kind == tokString {
		t.text = t.text[1 : len(t.text)-1]
	}
}

// scanNumber consumes an integer or real literal (with optional exponent).
func (l *lexer) scanNumber() {
	l.digits()
	if l.has(0) && l.buf[l.pos] == '.' {
		l.pos++
		l.digits()
	}
	if l.has(0) && (l.buf[l.pos] == 'e' || l.buf[l.pos] == 'E') {
		mark := l.pos - l.tok // relative: a refill moves the token
		l.pos++
		if l.has(0) && (l.buf[l.pos] == '+' || l.buf[l.pos] == '-') {
			l.pos++
		}
		if l.has(0) && isDigit(l.buf[l.pos]) {
			l.digits()
		} else {
			l.pos = l.tok + mark // not an exponent after all
		}
	}
}

// digits consumes a run of decimal digits, stopping once the token is too
// long.
func (l *lexer) digits() {
	for l.pos-l.tok <= maxToken && l.has(0) && isDigit(l.buf[l.pos]) {
		l.pos++
	}
}
