package circuit

import (
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"codar/internal/testutil"
)

// errSource yields its gates then a terminal error (never EOF).
type errSource struct {
	nq    int
	gates []Gate
	err   error
	pos   int
}

func (s *errSource) NumQubits() int { return s.nq }
func (s *errSource) NumClbits() int { return 0 }
func (s *errSource) Next() (Gate, error) {
	if s.pos < len(s.gates) {
		g := s.gates[s.pos]
		s.pos++
		return g, nil
	}
	return Gate{}, s.err
}

func TestSliceSourceYieldsInOrder(t *testing.T) {
	c := New(3)
	c.H(0).CX(0, 1).CX(1, 2)
	src := NewSliceSource(c)
	for i := range c.Gates {
		g, err := src.Next()
		if err != nil {
			t.Fatalf("gate %d: %v", i, err)
		}
		if !g.Equal(c.Gates[i]) {
			t.Fatalf("gate %d: got %v, want %v", i, g, c.Gates[i])
		}
	}
	if _, err := src.Next(); err != io.EOF {
		t.Fatalf("past the end: %v, want io.EOF", err)
	}
}

// windowModes runs body once with the read-ahead stage off and once with
// it on, so each Window contract is checked on both sides of the hand-off.
// The window it opens is closed when the test ends, and the producer must
// be gone by then.
func windowModes(t *testing.T, body func(t *testing.T, open func(src Source, batch int) *Window)) {
	for _, mode := range []struct {
		name      string
		readAhead bool
	}{{"direct", false}, {"read-ahead", true}} {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			testutil.CheckGoroutineLeaks(t)
			body(t, func(src Source, batch int) *Window {
				w := newWindow(src, batch, mode.readAhead)
				t.Cleanup(w.Close)
				return w
			})
		})
	}
}

func TestWindowFillBatches(t *testing.T) {
	windowModes(t, func(t *testing.T, open func(Source, int) *Window) {
		c := New(4)
		for i := 0; i < 10; i++ {
			c.RZ(float64(i), i%4)
		}
		w := open(NewSliceSource(c), 4)
		for _, want := range []int{4, 8, 10} {
			if err := w.Fill(); err != nil {
				t.Fatal(err)
			}
			if len(w.Gates()) != want {
				t.Fatalf("buffered %d gates, want %d", len(w.Gates()), want)
			}
		}
		if w.Open() {
			t.Fatal("window still open after the source drained")
		}
		if err := w.Fill(); err != nil || len(w.Gates()) != 10 {
			t.Fatalf("fill after EOF: err %v, %d gates", err, len(w.Gates()))
		}
	})
}

// TestWindowStaysOpenOnFullBatch: a stream whose length is a multiple of
// the batch leaves the window open after its last full batch; only the
// next Fill, finding nothing, closes it. The mappers' starvation decisions
// read Open, so the read-ahead stage must not close it one Fill early.
func TestWindowStaysOpenOnFullBatch(t *testing.T) {
	windowModes(t, func(t *testing.T, open func(Source, int) *Window) {
		c := New(2)
		for i := 0; i < 8; i++ {
			c.H(i % 2)
		}
		w := open(NewSliceSource(c), 4)
		for _, want := range []int{4, 8} {
			if err := w.Fill(); err != nil || len(w.Gates()) != want || !w.Open() {
				t.Fatalf("Fill: err %v, %d gates, open %v; want %d gates, open", err, len(w.Gates()), w.Open(), want)
			}
		}
		if err := w.Fill(); err != nil || len(w.Gates()) != 8 || w.Open() {
			t.Fatalf("Fill at EOF: err %v, %d gates, open %v; want 8 gates, closed", err, len(w.Gates()), w.Open())
		}
	})
}

// TestWindowErrorSticky pins the corrupt-stream contract: the first source
// or validation error closes the window and every later Fill re-returns
// it — a driver that polls Fill again must not mistake a corrupt stream
// for a cleanly drained one.
func TestWindowErrorSticky(t *testing.T) {
	windowModes(t, func(t *testing.T, open func(Source, int) *Window) {
		broken := errors.New("stream corrupt")
		src := &errSource{nq: 4, gates: []Gate{New1Q(OpH, 0), New2Q(OpCX, 0, 1)}, err: broken}
		w := open(src, 8)
		if err := w.Fill(); err != broken {
			t.Fatalf("Fill = %v, want the source error", err)
		}
		if w.Open() {
			t.Fatal("window open after a terminal error")
		}
		if err := w.Fill(); err != broken {
			t.Fatalf("second Fill = %v, error not sticky", err)
		}
		if len(w.Gates()) != 2 {
			t.Fatalf("buffered %d gates before the error, want 2", len(w.Gates()))
		}
	})
}

func TestWindowValidatesAgainstHeader(t *testing.T) {
	windowModes(t, func(t *testing.T, open func(Source, int) *Window) {
		src := &errSource{nq: 3, gates: []Gate{New1Q(OpH, 5)}, err: io.EOF}
		w := open(src, 8)
		err := w.Fill()
		if err == nil {
			t.Fatal("want validation error for qubit 5 on a 3-qubit stream")
		}
		if err2 := w.Fill(); err2 != err {
			t.Fatalf("validation error not sticky: %v then %v", err, err2)
		}
	})
}

func TestWindowRejectsCompoundGates(t *testing.T) {
	windowModes(t, func(t *testing.T, open func(Source, int) *Window) {
		c := New(3)
		c.H(0).CCX(0, 1, 2)
		w := open(NewSliceSource(c), 8)
		err := w.Fill()
		if err == nil {
			t.Fatal("want rejection of an unlowered ccx")
		}
		if want := "NewDecomposeSource"; !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not point at %s", err, want)
		}
		if err2 := w.Fill(); err2 != err {
			t.Fatalf("compound-gate error not sticky: %v then %v", err, err2)
		}
	})
}

// panicSource yields its gates, then panics with pv.
type panicSource struct {
	errSource
	pv any
}

func (s *panicSource) Next() (Gate, error) {
	if s.pos < len(s.gates) {
		return s.errSource.Next()
	}
	panic(s.pv)
}

// TestWindowReraisesSourcePanic: a panic in Next surfaces from Fill on the
// caller's goroutine with its own value, after the gates read before it —
// on a bare producer goroutine it would kill the process.
func TestWindowReraisesSourcePanic(t *testing.T) {
	windowModes(t, func(t *testing.T, open func(Source, int) *Window) {
		type boom struct{}
		src := &panicSource{errSource: errSource{nq: 2, gates: []Gate{New1Q(OpH, 0), New1Q(OpH, 1)}}, pv: boom{}}
		w := open(src, 8)
		var got any
		func() {
			defer func() { got = recover() }()
			_ = w.Fill()
		}()
		if got != (boom{}) {
			t.Fatalf("Fill recovered %v, want the source's panic value", got)
		}
		if len(w.Gates()) != 2 {
			t.Fatalf("buffered %d gates before the panic, want 2", len(w.Gates()))
		}
	})
}

// blockingSource yields its gates, then blocks in Next until release is
// closed and reports EOF. It counts its Next calls.
type blockingSource struct {
	errSource
	blocked chan struct{} // closed when Next blocks
	release chan struct{}
	calls   int
}

func (s *blockingSource) Next() (Gate, error) {
	s.calls++
	if s.pos < len(s.gates) {
		return s.errSource.Next()
	}
	close(s.blocked)
	<-s.release
	return Gate{}, io.EOF
}

// TestWindowCloseWaitsForBlockedNext: Close waits for the producer's Next
// that is blocked in a read, returns once it is released, and leaves the
// source untouched afterwards. The window was still open, so Fill then
// fails rather than reporting a clean end.
func TestWindowCloseWaitsForBlockedNext(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	src := &blockingSource{
		errSource: errSource{nq: 2, gates: []Gate{New1Q(OpH, 0), New1Q(OpH, 1)}},
		blocked:   make(chan struct{}),
		release:   make(chan struct{}),
	}
	w := newWindow(src, 2, true)
	if err := w.Fill(); err != nil || len(w.Gates()) != 2 {
		t.Fatalf("first Fill: err %v, %d gates", err, len(w.Gates()))
	}
	<-src.blocked // the producer is reading the next batch

	closed := make(chan struct{})
	go func() {
		w.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while the producer was still inside Next")
	case <-time.After(20 * time.Millisecond):
	}
	close(src.release)
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after the blocked Next was released")
	}
	if src.calls != 3 {
		t.Fatalf("source saw %d Next calls, want 3 (two gates, then the blocked read)", src.calls)
	}
	if err := w.Fill(); err == nil || w.Open() {
		t.Fatalf("Fill after Close: err %v, open %v; want an error on a closed window", err, w.Open())
	}
	if src.calls != 3 {
		t.Fatalf("source read after Close: %d Next calls", src.calls)
	}
}

// TestWindowCompactKeepsAndZeroes: Compact retains exactly the keep
// indices in order, and the evicted tail of the backing array is zeroed so
// dropped gates stop pinning their qubit/parameter slices.
func TestWindowCompactKeepsAndZeroes(t *testing.T) {
	c := New(4)
	for i := 0; i < 8; i++ {
		c.RZ(float64(i), i%4)
	}
	w := NewWindow(NewSliceSource(c), 8)
	if err := w.Fill(); err != nil {
		t.Fatal(err)
	}
	want := []Gate{c.Gates[2], c.Gates[5], c.Gates[7]}
	w.Compact([]int{2, 5, 7})
	got := w.Gates()
	if len(got) != len(want) {
		t.Fatalf("kept %d gates, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("kept gate %d: got %v, want %v", i, got[i], want[i])
		}
	}
	tail := w.gates[len(got):cap(w.gates[:8])]
	for i, g := range tail[:8-len(got)] {
		if g.Op != 0 || g.Qubits != nil || g.Params != nil {
			t.Fatalf("evicted slot %d not zeroed: %v", i, g)
		}
	}
}

// TestDecomposeSourceMatchesBatch: draining a DecomposeSource yields the
// same lowered sequence as the batch Decompose pass.
func TestDecomposeSourceMatchesBatch(t *testing.T) {
	c := New(4)
	c.H(0).CCX(0, 1, 2).CX(2, 3).RZ(0.5, 3).CCX(3, 2, 1).Measure(0, 0)
	want := Decompose(c)

	ds := NewDecomposeSource(NewSliceSource(c))
	if ds.NumQubits() != c.NumQubits {
		t.Fatalf("NumQubits = %d, want %d", ds.NumQubits(), c.NumQubits)
	}
	var got []Gate
	for {
		g, err := ds.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, g)
	}
	if len(got) != len(want.Gates) {
		t.Fatalf("streamed %d lowered gates, batch %d", len(got), len(want.Gates))
	}
	for i := range got {
		if !got[i].Equal(want.Gates[i]) {
			t.Fatalf("lowered gate %d: stream %v, batch %v", i, got[i], want.Gates[i])
		}
	}
	if ds.NumClbits() != want.NumClbits {
		t.Fatalf("NumClbits = %d, want %d", ds.NumClbits(), want.NumClbits)
	}
}
