package qasm

import (
	"fmt"
	"strings"
	"unicode"
)

// The reference lexer: a string-at-a-time scanner over the whole source
// that returns every token as a string. It is the oracle FuzzLexQASM
// checks the buffered byte lexer (lexer.go) against, token for token.

// refToken is one lexical unit of the reference lexer, with its source
// line for diagnostics.
type refToken struct {
	kind tokenKind
	text string
	line int
}

func (t refToken) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	case tokString:
		return fmt.Sprintf("%q", t.text)
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

// refLexer scans OpenQASM source held whole in memory.
type refLexer struct {
	src  string
	pos  int
	line int
}

func newRefLexer(src string) *refLexer { return &refLexer{src: src, line: 1} }

// next returns the next token, skipping whitespace and // comments.
func (l *refLexer) next() (refToken, error) {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		default:
			goto scan
		}
	}
	return refToken{kind: tokEOF, line: l.line}, nil

scan:
	c := l.src[l.pos]
	start := l.pos
	switch {
	case refIsIdentStart(rune(c)):
		for l.pos < len(l.src) && refIsIdentPart(rune(l.src[l.pos])) {
			l.pos++
		}
		return refToken{kind: tokIdent, text: l.src[start:l.pos], line: l.line}, nil
	case unicode.IsDigit(rune(c)) || (c == '.' && l.pos+1 < len(l.src) && unicode.IsDigit(rune(l.src[l.pos+1]))):
		l.scanNumber()
		return refToken{kind: tokNumber, text: l.src[start:l.pos], line: l.line}, nil
	case c == '"':
		l.pos++
		for l.pos < len(l.src) && l.src[l.pos] != '"' {
			if l.src[l.pos] == '\n' {
				return refToken{}, fmt.Errorf("qasm: line %d: unterminated string", l.line)
			}
			l.pos++
		}
		if l.pos >= len(l.src) {
			return refToken{}, fmt.Errorf("qasm: line %d: unterminated string", l.line)
		}
		text := l.src[start+1 : l.pos]
		l.pos++
		return refToken{kind: tokString, text: text, line: l.line}, nil
	case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '>':
		l.pos += 2
		return refToken{kind: tokSymbol, text: "->", line: l.line}, nil
	case c == '=' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '=':
		l.pos += 2
		return refToken{kind: tokSymbol, text: "==", line: l.line}, nil
	case strings.ContainsRune("(){}[];,+-*/^=", rune(c)):
		l.pos++
		return refToken{kind: tokSymbol, text: string(c), line: l.line}, nil
	default:
		return refToken{}, fmt.Errorf("qasm: line %d: unexpected character %q", l.line, c)
	}
}

// scanNumber consumes an integer or real literal (with optional exponent).
func (l *refLexer) scanNumber() {
	for l.pos < len(l.src) && unicode.IsDigit(rune(l.src[l.pos])) {
		l.pos++
	}
	if l.pos < len(l.src) && l.src[l.pos] == '.' {
		l.pos++
		for l.pos < len(l.src) && unicode.IsDigit(rune(l.src[l.pos])) {
			l.pos++
		}
	}
	if l.pos < len(l.src) && (l.src[l.pos] == 'e' || l.src[l.pos] == 'E') {
		mark := l.pos
		l.pos++
		if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
			l.pos++
		}
		if l.pos < len(l.src) && unicode.IsDigit(rune(l.src[l.pos])) {
			for l.pos < len(l.src) && unicode.IsDigit(rune(l.src[l.pos])) {
				l.pos++
			}
		} else {
			l.pos = mark // not an exponent after all
		}
	}
}

func refIsIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

func refIsIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_'
}

// refTokenize scans the whole source with the reference lexer.
func refTokenize(src string) ([]refToken, error) {
	l := newRefLexer(src)
	var out []refToken
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.kind == tokEOF {
			return out, nil
		}
	}
}
