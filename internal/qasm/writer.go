package qasm

import (
	"io"
	"strconv"
	"strings"

	"codar/internal/circuit"
)

// Write renders a circuit as OpenQASM 2.0 over a single quantum register
// q[n] (and classical register c[m] when measurements are present). The
// output parses back via Parse into an equal circuit, enabling round-trip
// pipelines (benchgen -> file -> codar CLI).
func Write(c *circuit.Circuit) string {
	var b strings.Builder
	line := appendHeader(nil, c.Name, c.NumQubits, c.NumClbits)
	// Reserve once: a typical mapped gate line ("cx q[3],q[14];\n") is
	// about 15 bytes.
	b.Grow(len(line) + 16*len(c.Gates))
	b.Write(line)
	for _, g := range c.Gates {
		line = AppendGate(line[:0], g)
		b.Write(line)
	}
	return b.String()
}

// Append appends Write's rendering of c to b and returns the extended
// slice.
func Append(b []byte, c *circuit.Circuit) []byte {
	b = appendHeader(b, c.Name, c.NumQubits, c.NumClbits)
	for _, g := range c.Gates {
		b = AppendGate(b, g)
	}
	return b
}

func appendHeader(b []byte, name string, numQubits, numClbits int) []byte {
	b = append(b, "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n"...)
	if name != "" {
		b = append(b, "// circuit: "...)
		b = append(b, name...)
		b = append(b, '\n')
	}
	b = append(b, "qreg q["...)
	b = strconv.AppendInt(b, int64(numQubits), 10)
	b = append(b, "];\n"...)
	if numClbits > 0 {
		b = append(b, "creg c["...)
		b = strconv.AppendInt(b, int64(numClbits), 10)
		b = append(b, "];\n"...)
	}
	return b
}

// Header renders the OpenQASM preamble Write would emit for a circuit with
// the given name and register sizes — the fixed prefix of a streamed
// rendering (appending every mapped gate line reproduces Write's output
// byte for byte).
func Header(name string, numQubits, numClbits int) string {
	return string(appendHeader(nil, name, numQubits, numClbits))
}

// AppendGate appends one gate statement to b, exactly as Write renders
// it, and returns the extended slice.
func AppendGate(b []byte, g circuit.Gate) []byte {
	switch g.Op {
	case circuit.OpMeasure:
		b = append(b, "measure "...)
		b = appendQubit(b, g.Qubits[0])
		b = append(b, " -> c["...)
		b = strconv.AppendInt(b, int64(g.Cbit), 10)
		return append(b, "];\n"...)
	case circuit.OpReset:
		b = append(b, "reset "...)
		b = appendQubit(b, g.Qubits[0])
		return append(b, ";\n"...)
	}
	b = append(b, g.Op.Name()...)
	if len(g.Params) > 0 && g.Op != circuit.OpBarrier {
		b = append(b, '(')
		for i, p := range g.Params {
			if i > 0 {
				b = append(b, ',')
			}
			// The shortest representation that round-trips exactly.
			b = strconv.AppendFloat(b, p, 'g', -1, 64)
		}
		b = append(b, ')')
	}
	b = append(b, ' ')
	for i, q := range g.Qubits {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendQubit(b, q)
	}
	return append(b, ";\n"...)
}

func appendQubit(b []byte, q int) []byte {
	b = append(b, "q["...)
	b = strconv.AppendInt(b, int64(q), 10)
	return append(b, ']')
}

// StreamWriter renders OpenQASM 2.0 incrementally: the header at
// construction, then one gate per WriteGate call — the output side of the
// streaming pipeline, where the mapped circuit is never materialized.
// WriteGate(g) for every gate of a circuit produces exactly the bytes of
// Write over that circuit (for unnamed circuits), so batch and streamed
// renderings are interchangeable. Each gate renders into one reused
// buffer, so WriteGate allocates nothing of its own.
type StreamWriter struct {
	w   io.Writer
	buf []byte
}

// NewStreamWriter writes the OpenQASM header for numQubits qubits (and
// numClbits classical bits when positive) and returns the gate writer.
func NewStreamWriter(w io.Writer, numQubits, numClbits int) (*StreamWriter, error) {
	sw := &StreamWriter{w: w, buf: appendHeader(make([]byte, 0, 64), "", numQubits, numClbits)}
	if _, err := w.Write(sw.buf); err != nil {
		return nil, err
	}
	return sw, nil
}

// WriteGate renders one gate statement.
func (sw *StreamWriter) WriteGate(g circuit.Gate) error {
	sw.buf = AppendGate(sw.buf[:0], g)
	_, err := sw.w.Write(sw.buf)
	return err
}
