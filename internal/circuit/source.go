package circuit

import (
	"fmt"
	"io"
)

// Source is a pull-based gate stream: the streaming mapping pipeline's
// alternative to materialising a whole Circuit before mapping starts.
// NumQubits (and NumClbits) must be known up front — the OpenQASM grammar
// freezes register declarations at the first operation, so any front end
// can satisfy this before emitting its first gate.
//
// Next returns the gates in program order and io.EOF after the last one.
// Any other error is terminal: the stream is corrupt past that point and
// callers must not retry. Returned gates are immutable and their slices
// remain valid after subsequent Next calls.
type Source interface {
	NumQubits() int
	NumClbits() int
	Next() (Gate, error)
}

// SliceSource adapts an in-memory circuit to the Source interface, mainly
// so whole-circuit callers (the service, the differential tests) can run
// the streaming pipeline without a second front end.
type SliceSource struct {
	c   *Circuit
	pos int
}

// NewSliceSource returns a Source yielding c's gates in order. The circuit
// must not be mutated while the source is in use.
func NewSliceSource(c *Circuit) *SliceSource { return &SliceSource{c: c} }

// NumQubits implements Source.
func (s *SliceSource) NumQubits() int { return s.c.NumQubits }

// NumClbits implements Source.
func (s *SliceSource) NumClbits() int { return s.c.NumClbits }

// Next implements Source.
func (s *SliceSource) Next() (Gate, error) {
	if s.pos >= len(s.c.Gates) {
		return Gate{}, io.EOF
	}
	g := s.c.Gates[s.pos]
	s.pos++
	return g, nil
}

// DecomposeSource lowers an inner gate stream to the base gate set on the
// fly — the streaming counterpart of Decompose. Base gates pass through
// untouched (the Source contract makes them immutable, so there is nothing
// to copy); a compound gate is validated and expands into a small bounded
// buffer (the largest expansion is the 15-gate Toffoli) whose qubit and
// parameter slices come from arenas, so resident memory stays O(1)
// regardless of stream length.
type DecomposeSource struct {
	src Source
	d   decomposer
	pos int
}

// NewDecomposeSource wraps src in a streaming lowering pass.
func NewDecomposeSource(src Source) *DecomposeSource {
	ds := &DecomposeSource{src: src}
	ds.d.out = &Circuit{NumQubits: src.NumQubits(), NumClbits: src.NumClbits()}
	return ds
}

// NumQubits implements Source.
func (s *DecomposeSource) NumQubits() int { return s.d.out.NumQubits }

// NumClbits implements Source.
func (s *DecomposeSource) NumClbits() int { return s.d.out.NumClbits }

// Next implements Source.
func (s *DecomposeSource) Next() (Gate, error) {
	if s.pos < len(s.d.out.Gates) {
		g := s.d.out.Gates[s.pos]
		s.pos++
		return g, nil
	}
	in, err := s.src.Next()
	if err != nil {
		return Gate{}, err
	}
	if IsBase(in.Op) {
		return in, nil
	}
	// Validating first makes the expansion's own Add checks unable to fail.
	if err := s.d.out.check(in); err != nil {
		return Gate{}, err
	}
	// The expansion buffer is drained before each refill; gate values
	// already handed out keep their own arena slices (the arenas never
	// rewind), so truncating is safe.
	s.d.out.Gates = s.d.out.Gates[:0]
	decomposeInto(&s.d, in)
	s.pos = 1
	return s.d.out.Gates[0], nil
}

// Window is the bounded gate buffer between a Source and a streaming
// mapper: the resident slice of the circuit the mapper's commutative-front
// (or DAG-front) engine currently needs. The streaming drivers refill it in
// batches, and Compact evicts settled prefix state — gates the mapper has
// already scheduled — reusing one backing array so resident memory is
// O(batch + live), independent of total stream length.
type Window struct {
	src   Source
	batch int
	gates []Gate
	open  bool
	err   error // sticky terminal source/validation error
	// chk replays Circuit.Add's per-gate validation (including classical-bit
	// growth) so the mappers can trust buffered gates without a whole-circuit
	// Validate pass.
	chk Circuit
}

// NewWindow returns a window over src refilled batch gates at a time.
func NewWindow(src Source, batch int) *Window {
	if batch < 1 {
		batch = 1
	}
	return &Window{
		src:   src,
		batch: batch,
		open:  true,
		chk:   Circuit{NumQubits: src.NumQubits(), NumClbits: src.NumClbits()},
	}
}

// Fill pulls up to one batch of further gates from the source, validating
// each against the stream header and the mapper base set. The first source
// or validation error closes the window and is returned (and re-returned:
// a corrupt stream must not be resumed).
func (w *Window) Fill() error {
	if !w.open {
		return w.err
	}
	for n := 0; n < w.batch; n++ {
		g, err := w.src.Next()
		if err == io.EOF {
			w.open = false
			return nil
		}
		if err != nil {
			w.open = false
			w.err = err
			return err
		}
		if err := w.chk.check(g); err != nil {
			w.open = false
			w.err = err
			return err
		}
		if !IsBase(g.Op) {
			w.open = false
			w.err = fmt.Errorf("circuit: stream contains compound gate %s; lower it first (circuit.NewDecomposeSource)", g.Op)
			return w.err
		}
		w.gates = append(w.gates, g)
	}
	return nil
}

// Gates returns the buffered gates in stream order. The slice is owned by
// the window: valid until the next Fill or Compact.
func (w *Window) Gates() []Gate { return w.gates }

// Open reports whether the source may still yield more gates.
func (w *Window) Open() bool { return w.open }

// NumQubits returns the stream's qubit count.
func (w *Window) NumQubits() int { return w.chk.NumQubits }

// NumClbits returns the stream's classical-bit count seen so far.
func (w *Window) NumClbits() int { return w.chk.NumClbits }

// Compact retains only the gates at the given buffer indices (ascending)
// and evicts everything else — the settled prefix whose schedule chunks
// have been flushed. The backing array is reused and the evicted tail
// zeroed so dropped gates stop pinning their qubit/parameter slices.
func (w *Window) Compact(keep []int) {
	dst := 0
	for _, i := range keep {
		w.gates[dst] = w.gates[i]
		dst++
	}
	tail := w.gates[dst:]
	for i := range tail {
		tail[i] = Gate{}
	}
	w.gates = w.gates[:dst]
}
