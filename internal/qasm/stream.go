package qasm

import (
	"io"

	"codar/internal/circuit"
)

// Stream is the pull-based streaming front end: it parses OpenQASM 2.0
// incrementally and emits gates one at a time without materialising the
// whole program. It accepts exactly the language Parse accepts (the same
// lexer and parser run underneath, including user-defined gate inlining,
// the 65536-qubit cap and the token-length cap) and, for accepted
// programs, yields the identical gate sequence — the FuzzStreamQASM
// differential fuzzer pins this. Memory is bounded by the lexer's 64 KiB
// buffer plus one statement's gates, whatever the line lengths, and the
// parser's work bound caps those gates.
//
// Register declarations are frozen at the first operation (an OpenQASM
// rule), so NumQubits and NumClbits are known as soon as NewStream
// returns. Errors after the first emitted gate surface from Next: a
// consumer may have acted on a prefix of a program that later turns out to
// be malformed, which is inherent to streaming.
type Stream struct {
	p     *parser
	queue []circuit.Gate
	qpos  int
	done  bool
	err   error // sticky terminal parse error

	headerDone bool
	gates      int
}

// NewStream starts parsing r. It consumes statements until the first gate,
// end of input, or an error; programs that fail before their first gate
// are rejected here rather than from Next.
func NewStream(r io.Reader) (*Stream, error) {
	s := &Stream{p: newParser(newLexer(r, lexBufSize))}
	s.pump()
	if s.err != nil {
		return nil, s.err
	}
	return s, nil
}

// NumQubits returns the total declared qubit count (all quantum registers
// concatenated in declaration order, as in Parse).
func (s *Stream) NumQubits() int { return s.p.circ.NumQubits }

// NumClbits returns the total declared classical-bit count.
func (s *Stream) NumClbits() int { return s.p.circ.NumClbits }

// Gates returns the number of gates emitted so far.
func (s *Stream) Gates() int { return s.gates }

// Next returns the next gate of the program, io.EOF after the last one, or
// the parse error that terminated the stream.
func (s *Stream) Next() (circuit.Gate, error) {
	for s.qpos >= len(s.queue) {
		if s.err != nil {
			return circuit.Gate{}, s.err
		}
		if s.done {
			return circuit.Gate{}, io.EOF
		}
		s.pump()
	}
	g := s.queue[s.qpos]
	s.qpos++
	s.gates++
	return g, nil
}

// fail records the stream's terminal error.
func (s *Stream) fail(err error) {
	s.err = s.p.failure(err)
}

// pump parses statements until at least one gate is queued, end of input,
// or an error. One statement can emit many gates (register broadcasts,
// measures over registers, user-defined gate inlining), so the parsed
// gates land in a drained queue; the parser's accumulation circuit is
// truncated after each statement, keeping resident memory O(statement).
func (s *Stream) pump() {
	p := s.p
	if !s.headerDone {
		if err := p.parseHeader(); err != nil {
			s.fail(err)
			return
		}
		s.headerDone = true
	}
	s.queue = s.queue[:0]
	s.qpos = 0
	for {
		if p.atEOF() {
			if p.lex.err != nil {
				s.fail(p.lex.err)
				return
			}
			if err := p.finishProgram(); err != nil {
				s.fail(err)
				return
			}
			s.done = true
			return
		}
		if err := p.parseStatement(); err != nil {
			s.fail(err)
			return
		}
		if p.circ != nil && len(p.circ.Gates) > 0 {
			// Gate values own their qubit/parameter slices (the parser's
			// arenas never rewind), so copying the values out and
			// truncating the accumulator is safe.
			s.queue = append(s.queue, p.circ.Gates...)
			p.circ.Gates = p.circ.Gates[:0]
			return
		}
	}
}
