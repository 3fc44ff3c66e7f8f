package circuit

import (
	"errors"
	"fmt"
	"io"
	"runtime"
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
//
// A streaming mapper (core.RemapStream, sabre.RemapStream) owns its source
// from the call until it returns: Next may run on a goroutine other than
// the caller's (Window's read-ahead stage), never on two at once, and the
// caller must not use the source until the mapper has returned.
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
//
// A window over a source that does work per gate reads ahead: one producer
// goroutine pulls the next batches from the source while the caller maps
// the current one. Fill still validates on the caller's goroutine, so each
// Fill buffers exactly the gates it would without the stage. The owner
// must Close the window.
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
	ra  *readAhead // nil when Fill pulls from src itself
}

// NewWindow returns a window over src refilled batch gates at a time. It
// starts the read-ahead stage when that can overlap work: more than one
// goroutine may run at once (GOMAXPROCS > 1) and src is not a SliceSource,
// whose Next does no work.
func NewWindow(src Source, batch int) *Window {
	_, inMemory := src.(*SliceSource)
	return newWindow(src, batch, !inMemory && runtime.GOMAXPROCS(0) > 1)
}

// newWindow builds the window, with the read-ahead stage when readAhead is
// set.
func newWindow(src Source, batch int, readAhead bool) *Window {
	if batch < 1 {
		batch = 1
	}
	w := &Window{
		src:   src,
		batch: batch,
		open:  true,
		chk:   Circuit{NumQubits: src.NumQubits(), NumClbits: src.NumClbits()},
	}
	if readAhead {
		w.ra = startReadAhead(src, batch)
	}
	return w
}

// errWindowClosed is Fill's error after Close on a window still open.
var errWindowClosed = errors.New("circuit: window closed before the stream ended")

// Fill pulls up to one batch of further gates from the source, validating
// each against the stream header and the mapper base set. The first source
// or validation error closes the window and is returned (and re-returned:
// a corrupt stream must not be resumed). A panic in the source's Next is
// re-raised here, on the caller's goroutine.
func (w *Window) Fill() error {
	if !w.open {
		return w.err
	}
	if w.ra != nil {
		return w.fillAhead()
	}
	for n := 0; n < w.batch; n++ {
		g, err := w.src.Next()
		if err != nil {
			return w.end(err)
		}
		if err := w.push(g); err != nil {
			return err
		}
	}
	return nil
}

// fillAhead is Fill over the producer's next batch: its gates are
// validated in order, then the condition that ended it early applies.
func (w *Window) fillAhead() error {
	b := <-w.ra.ready
	defer w.ra.recycle(b)
	for _, g := range b.gates {
		if err := w.push(g); err != nil {
			return err
		}
	}
	if b.panicked != nil {
		w.end(fmt.Errorf("circuit: source panicked: %v", b.panicked))
		panic(b.panicked)
	}
	if b.err != nil {
		return w.end(b.err)
	}
	return nil
}

// push validates g and appends it to the buffer. An invalid gate closes
// the window with a sticky error.
func (w *Window) push(g Gate) error {
	if err := w.chk.check(g); err != nil {
		return w.end(err)
	}
	if !IsBase(g.Op) {
		return w.end(fmt.Errorf("circuit: stream contains compound gate %s; lower it first (circuit.NewDecomposeSource)", g.Op))
	}
	w.gates = append(w.gates, g)
	return nil
}

// end closes the window: io.EOF drains it cleanly, any other error is
// kept and returned by every later Fill.
func (w *Window) end(err error) error {
	w.open = false
	if err == io.EOF {
		return nil
	}
	w.err = err
	return err
}

// Close stops the read-ahead stage and waits for its goroutine to exit, so
// the source is not touched once Close returns. That wait covers at most
// the batch being read, or one Next already blocked in a read. A window
// closed before its stream ended fails every later Fill. Close is
// idempotent.
func (w *Window) Close() {
	if w.ra != nil {
		close(w.ra.stop)
		<-w.ra.done
		w.ra = nil
	}
	if w.open {
		w.end(errWindowClosed)
	}
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

// readAheadBuffers is the number of hand-off buffers. With two, the
// producer reads one batch while the other waits for Fill; more gain
// nothing once the engine is the slower side.
const readAheadBuffers = 2

// readAhead is a Window's producer: one goroutine that reads batches from
// the source into hand-off buffers. The buffers circulate free → producer
// → ready → Fill → free, and both channels hold every buffer, so no send
// blocks.
type readAhead struct {
	free, ready chan *readBatch
	stop        chan struct{} // closed by Close
	done        chan struct{} // closed when the producer has exited
}

// readBatch is one hand-off buffer: up to a batch of gates, then what ended
// it early — the source's error (io.EOF included) or a panic in Next.
type readBatch struct {
	gates    []Gate
	err      error
	panicked any
}

func startReadAhead(src Source, batch int) *readAhead {
	ra := &readAhead{
		free:  make(chan *readBatch, readAheadBuffers),
		ready: make(chan *readBatch, readAheadBuffers),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	for i := 0; i < readAheadBuffers; i++ {
		ra.free <- new(readBatch)
	}
	go ra.run(src, batch)
	return ra
}

// run fills free buffers until the source ends or Close stops it.
func (ra *readAhead) run(src Source, batch int) {
	defer close(ra.done)
	for {
		var b *readBatch
		select {
		case <-ra.stop:
			return
		case b = <-ra.free:
		}
		// Stopping takes priority over a free buffer, so Close waits for at
		// most the batch being read when it was called.
		select {
		case <-ra.stop:
			return
		default:
		}
		b.read(src, batch)
		last := b.err != nil || b.panicked != nil
		ra.ready <- b // b is Fill's from here on
		if last {
			return
		}
	}
}

// read pulls up to n gates into b, stopping at the source's first error.
// A panic in Next is caught into b for Fill to re-raise.
func (b *readBatch) read(src Source, n int) {
	defer func() { b.panicked = recover() }()
	if b.gates == nil {
		b.gates = make([]Gate, 0, n)
	}
	for len(b.gates) < n {
		g, err := src.Next()
		if err != nil {
			b.err = err
			return
		}
		b.gates = append(b.gates, g)
	}
}

// recycle zeroes b, as Compact zeroes its tail, so consumed gates stop
// pinning their slices, and hands it back to the producer.
func (ra *readAhead) recycle(b *readBatch) {
	clear(b.gates)
	b.gates, b.err, b.panicked = b.gates[:0], nil, nil
	ra.free <- b
}
