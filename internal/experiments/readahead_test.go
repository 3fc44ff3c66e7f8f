package experiments

import (
	"context"
	"errors"
	"io"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"codar/internal/arch"
	"codar/internal/circuit"
	"codar/internal/core"
	"codar/internal/interrupt"
	"codar/internal/sabre"
	"codar/internal/schedule"
	"codar/internal/testutil"
	"codar/internal/workloads"
)

// goroutineID returns the calling goroutine's id from its stack header
// ("goroutine 7 [running]:").
func goroutineID() uint64 {
	var buf [64]byte
	header := strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))
	id, _ := strconv.ParseUint(header[1], 10, 64)
	return id
}

// probeSource yields its gates and then ends with err, or panics with pv
// when pv is set. It is not a SliceSource, so a streaming mapper's window
// reads it ahead. It records whether its first Next ran off the caller's
// goroutine, and flags any Next that runs once the caller has marked the
// mapper returned.
type probeSource struct {
	nq    int
	gates []circuit.Gate
	err   error
	pv    any
	pos   int

	caller    uint64 // goroutine that calls the mapper
	offCaller bool   // the first Next ran on another goroutine
	returned  atomic.Bool
	late      atomic.Bool
}

func (s *probeSource) NumQubits() int { return s.nq }
func (s *probeSource) NumClbits() int { return 0 }

func (s *probeSource) Next() (circuit.Gate, error) {
	if s.returned.Load() {
		s.late.Store(true)
	}
	if s.pos == 0 {
		s.offCaller = goroutineID() != s.caller
	}
	if s.pos < len(s.gates) {
		g := s.gates[s.pos]
		s.pos++
		return g, nil
	}
	if s.pv != nil {
		panic(s.pv)
	}
	return circuit.Gate{}, s.err
}

// streamMapper is one streaming entry point with the inputs the rows vary.
type streamMapper struct {
	name string
	run  func(src circuit.Source, dev *arch.Device, ctx context.Context, bound *arch.DepthBound, sink schedule.Sink) error
}

var streamMappers = []streamMapper{
	{"codar", func(src circuit.Source, dev *arch.Device, ctx context.Context, bound *arch.DepthBound, sink schedule.Sink) error {
		_, err := core.RemapStream(src, dev, nil, core.Options{Ctx: ctx, DepthBound: bound}, sink)
		return err
	}},
	{"sabre", func(src circuit.Source, dev *arch.Device, ctx context.Context, bound *arch.DepthBound, sink schedule.Sink) error {
		_, err := sabre.RemapStream(src, dev, nil, sabre.Options{Ctx: ctx, DepthBound: bound}, sink)
		return err
	}},
}

// TestStreamReadAheadExitPaths pins the read-ahead stage's lifetime for
// both streaming mappers: on every way out of RemapStream — the end of the
// stream, a source error, an unlowered gate, cancellation, a depth-bound
// abandon, a failing sink and a panic in Next — the window's producer has
// exited and the source is never read again once the call returns. A
// panic in Next surfaces on the caller's goroutine.
func TestStreamReadAheadExitPaths(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2)) // the stage needs a second P
	}
	dev := arch.IBMQ20Tokyo()
	gates := workloads.Random(dev.NumQubits, 6000, 45, 3).Gates
	const mid = 3000 // past the first refills, so the producer is reading ahead
	withCCX := append(append(append([]circuit.Gate{}, gates[:mid]...), circuit.New(3).CCX(0, 1, 2).Gates...), gates[mid:]...)
	broken := errors.New("source broke")
	sinkFull := errors.New("sink full")
	type boom struct{}

	rows := []struct {
		name   string
		gates  []circuit.Gate
		err    error // how the source ends
		pv     any   // when set, the source panics with it instead
		cancel bool  // the sink cancels the context on its first flush
		bound  bool  // a depth bound every run exceeds
		// sinkErr is returned by the sink's first flush.
		sinkErr error
		// check judges the mapper's error (the recovered panic value when pv
		// is set).
		check func(err error, recovered any) bool
	}{
		{name: "eof", gates: gates, err: io.EOF,
			check: func(err error, _ any) bool { return err == nil }},
		{name: "source error", gates: gates[:mid], err: broken,
			check: func(err error, _ any) bool { return errors.Is(err, broken) }},
		{name: "unlowered gate", gates: withCCX, err: io.EOF,
			check: func(err error, _ any) bool { return err != nil && strings.Contains(err.Error(), "compound gate") }},
		{name: "canceled", gates: gates, err: io.EOF, cancel: true,
			check: func(err error, _ any) bool { return errors.Is(err, interrupt.ErrCanceled) }},
		{name: "depth bound", gates: gates, err: io.EOF, bound: true,
			check: func(err error, _ any) bool {
				return errors.Is(err, core.ErrDepthBound) || errors.Is(err, sabre.ErrDepthBound)
			}},
		{name: "sink error", gates: gates, err: io.EOF, sinkErr: sinkFull,
			check: func(err error, _ any) bool { return errors.Is(err, sinkFull) }},
		{name: "panic in Next", gates: gates[:mid], pv: boom{},
			check: func(_ error, recovered any) bool { return recovered == boom{} }},
	}
	for _, m := range streamMappers {
		for _, row := range rows {
			m, row := m, row
			t.Run(m.name+"/"+row.name, func(t *testing.T) {
				src := &probeSource{nq: dev.NumQubits, gates: row.gates, err: row.err, pv: row.pv, caller: goroutineID()}
				// Registered before the leak check, so it runs after that
				// check's settling period: a producer that outlived the call
				// has had time to read again.
				t.Cleanup(func() {
					if src.late.Load() {
						t.Error("the source was read after RemapStream returned")
					}
				})
				testutil.CheckGoroutineLeaks(t)

				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				var bound *arch.DepthBound
				if row.bound {
					bound = &arch.DepthBound{}
					bound.Tighten(1)
				}
				sink := schedule.FuncSink(func([]schedule.ScheduledGate) error {
					if row.cancel {
						cancel()
					}
					return row.sinkErr
				})
				var err error
				var recovered any
				func() {
					defer func() { recovered = recover() }()
					err = m.run(src, dev, ctx, bound, sink)
				}()
				src.returned.Store(true)

				if row.pv == nil && recovered != nil {
					t.Fatalf("RemapStream panicked: %v", recovered)
				}
				if !row.check(err, recovered) {
					t.Fatalf("RemapStream returned err %v, recovered %v", err, recovered)
				}
				if !src.offCaller {
					t.Error("the window did not read ahead: Next ran on the caller's goroutine")
				}
			})
		}
	}
}
