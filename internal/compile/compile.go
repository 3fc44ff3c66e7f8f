// Package compile is the one mapping pipeline behind every front door: the
// service, the codar command, the experiment drivers and the portfolio. It
// takes a parsed and lowered circuit, places it by the rule the caller
// names, routes it with CODAR or SABRE (whole, or streamed through a
// schedule.Sink), optionally routes the SABRE baseline from the same
// layout, and measures what was emitted (DESIGN.md §15). Run chains the two
// stages, Place and Route; the portfolio calls them apart to share one
// layout between both routers.
package compile

import (
	"context"
	"errors"
	"fmt"

	"codar/internal/arch"
	"codar/internal/calib"
	"codar/internal/circuit"
	"codar/internal/core"
	"codar/internal/placement"
	"codar/internal/sabre"
	"codar/internal/schedule"
)

// Algorithm names a router.
type Algorithm string

// The routers.
const (
	Codar Algorithm = "codar"
	Sabre Algorithm = "sabre"
)

// ParseAlgorithm validates a router name.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch a := Algorithm(s); a {
	case Codar, Sabre:
		return a, nil
	}
	return "", fmt.Errorf("compile: unknown algorithm %q (want codar or sabre)", s)
}

// The stages an Error names besides the routers, which go by their
// Algorithm.
const (
	StageLayout   = "initial layout"
	StageBaseline = "sabre baseline"
	StageEstimate = "success estimate"
)

// Error is a pipeline failure and the stage it happened in. Unwrap
// exposes the stage's own error, such as interrupt.ErrCanceled.
type Error struct {
	Stage string
	Err   error
}

func (e *Error) Error() string { return e.Stage + ": " + e.Err.Error() }
func (e *Error) Unwrap() error { return e.Err }

// Spec is what a front door decides about one mapping.
type Spec struct {
	Algorithm Algorithm
	// Placement and Seed pick the initial layout (placement.Generate).
	Placement placement.Method
	Seed      int64
	// Baseline also routes SABRE from the same layout into
	// Result.Baseline. It needs a whole output and is ignored with a Sink.
	Baseline bool
	// Ctx and Cost apply to placement and to both routers.
	Ctx  context.Context
	Cost *arch.CostModel
	// DepthBound, when set, makes both routers (not placement) give up
	// with arch.ErrDepthBound once their output can no longer beat it: the
	// portfolio's early abandon (DESIGN.md §9).
	DepthBound *arch.DepthBound
	// Codar is CODAR's own tuning. Its Ctx, Cost and DepthBound come from
	// the Spec, so they must be left unset here: Run, Route and Stream
	// reject a Spec that sets one.
	Codar core.Options
	// Snapshot adds the estimated success probability to whole outputs.
	Snapshot *calib.Snapshot
	// Sink, when set, receives the output chunk by chunk instead of
	// Result.Circuit.
	Sink schedule.Sink
}

// Metrics measure one output: its gate count, its depth as
// circuit.Circuit.Depth counts it, and its weighted depth, the makespan of
// its ASAP schedule under the device durations (the paper's figure of
// merit). ESP is the estimated success probability under Spec.Snapshot;
// nil without one, and with a sink (it needs the whole schedule).
type Metrics struct {
	Gates, Depth, WeightedDepth int
	ESP                         *float64
}

// Result is one mapping, for both routers and both modes. Circuit is the
// physical output in emission order, nil with a sink; Chunks counts the
// sink's flushes; Baseline is the SABRE run of Spec.Baseline.
type Result struct {
	Circuit                    *circuit.Circuit
	InitialLayout, FinalLayout *arch.Layout
	Swaps, Chunks              int
	Metrics
	Baseline *Result
}

// Run maps a whole lowered circuit that fits dev: Place, then Route, over
// one circuit.Assembly.
func Run(c *circuit.Circuit, dev *arch.Device, spec Spec) (*Result, error) {
	if err := spec.checkCodar(); err != nil {
		return nil, err
	}
	a := circuit.Assemble(c)
	initial, err := Place(a, dev, spec)
	if err != nil {
		return nil, err
	}
	return Route(a, dev, initial, spec)
}

// Place computes the initial layout of Spec.Placement at Spec.Seed, under
// the Spec's Ctx and Cost.
func Place(a *circuit.Assembly, dev *arch.Device, spec Spec) (*arch.Layout, error) {
	initial, err := placement.Generate(spec.Placement, a, dev, spec.Seed, sabre.Options{Ctx: spec.Ctx, Cost: spec.Cost})
	if err != nil {
		return nil, &Error{StageLayout, err}
	}
	return initial, nil
}

// Route maps the assembly from initial with Spec.Algorithm, and the
// baseline from the same layout. The layout is only read.
func Route(a *circuit.Assembly, dev *arch.Device, initial *arch.Layout, spec Spec) (*Result, error) {
	if err := spec.checkCodar(); err != nil {
		return nil, err
	}
	if spec.Sink != nil {
		return spec.route(spec.Algorithm, string(spec.Algorithm), nil, circuit.NewSliceSource(a.Circ), dev, initial)
	}
	res, err := spec.route(spec.Algorithm, string(spec.Algorithm), a, nil, dev, initial)
	if err == nil && spec.Baseline {
		res.Baseline, err = spec.route(Sabre, StageBaseline, a, nil, dev, initial)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Stream maps a lowered gate stream that fits dev. A stream is never
// whole, so it takes only the trivial placement and needs a sink; its
// output and summary equal Run's under the same Spec.
func Stream(src circuit.Source, dev *arch.Device, spec Spec) (*Result, error) {
	if spec.Placement != placement.MethodTrivial || spec.Sink == nil {
		return nil, errors.New("compile: a stream takes the trivial placement and needs a sink")
	}
	if err := spec.checkCodar(); err != nil {
		return nil, err
	}
	return spec.route(spec.Algorithm, string(spec.Algorithm), nil, src, dev, nil)
}

// checkCodar rejects a Spec that sets, in Codar, a field the pipeline
// fills from the Spec itself: route would overwrite it without a word.
func (s *Spec) checkCodar() error {
	var field string
	switch {
	case s.Codar.Ctx != nil:
		field = "Ctx"
	case s.Codar.Cost != nil:
		field = "Cost"
	case s.Codar.DepthBound != nil:
		field = "DepthBound"
	default:
		return nil
	}
	return fmt.Errorf("compile: Spec.Codar.%s is set; set Spec.%s instead", field, field)
}

// route maps from initial with algo, failing as stage: the assembly whole,
// or src through a meter into the Spec's sink.
func (s *Spec) route(algo Algorithm, stage string, a *circuit.Assembly, src circuit.Source, dev *arch.Device, initial *arch.Layout) (*Result, error) {
	copts := s.Codar
	copts.Ctx, copts.Cost, copts.DepthBound = s.Ctx, s.Cost, s.DepthBound
	sopts := sabre.Options{Ctx: s.Ctx, Cost: s.Cost, DepthBound: s.DepthBound}
	var m *meter
	if a == nil {
		m = newMeter(dev.NumQubits, dev.Durations, s.Sink)
	}
	res := &Result{}
	var err error
	switch {
	case algo == Codar && a != nil:
		var r *core.Result
		if r, err = core.RemapAssembled(a, dev, initial, copts); err == nil {
			res.Circuit, res.InitialLayout, res.FinalLayout, res.Swaps = r.Circuit, r.InitialLayout, r.FinalLayout, r.SwapCount
		}
	case algo == Sabre && a != nil:
		var r *sabre.Result
		if r, err = sabre.RemapAssembled(a, dev, initial, sopts); err == nil {
			res.Circuit, res.InitialLayout, res.FinalLayout, res.Swaps = r.Circuit, r.InitialLayout, r.FinalLayout, r.SwapCount
		}
	case algo == Codar:
		var r *core.StreamResult
		if r, err = core.RemapStream(src, dev, initial, copts, m); err == nil {
			res.InitialLayout, res.FinalLayout, res.Swaps = r.InitialLayout, r.FinalLayout, r.SwapCount
		}
	case algo == Sabre:
		var r *sabre.StreamResult
		if r, err = sabre.RemapStream(src, dev, initial, sopts, m); err == nil {
			res.InitialLayout, res.FinalLayout, res.Swaps = r.InitialLayout, r.FinalLayout, r.SwapCount
		}
	default:
		_, err = ParseAlgorithm(string(algo))
	}
	if err != nil {
		return nil, &Error{stage, err}
	}
	if m != nil {
		res.Metrics, res.Chunks = m.Metrics, m.chunks
		return res, nil
	}
	res.Metrics, err = Measure(res.Circuit, dev, s.Snapshot)
	return res, err
}

// Measure returns the metrics of a whole output, with the ESP under snap
// when snap is non-nil, from one ASAP schedule.
func Measure(c *circuit.Circuit, dev *arch.Device, snap *calib.Snapshot) (Metrics, error) {
	m := newMeter(c.NumQubits, dev.Durations, nil)
	for _, g := range c.Gates {
		m.add(g)
	}
	if snap != nil {
		esp, err := snap.Success(schedule.ASAP(c, dev.Durations), dev)
		if err != nil {
			return m.Metrics, &Error{StageEstimate, err}
		}
		m.ESP = &esp
	}
	return m.Metrics, nil
}

// meter measures an output gate by gate in emission order: the count, the
// depth (a barrier takes no layer, as in circuit.Circuit.Depth) and the
// ASAP weighted depth (the arch.ASAPTracker recurrence
// schedule.WeightedDepth runs). As a sink it measures each chunk and
// passes it on.
type meter struct {
	Metrics
	dur    arch.Durations
	level  []int // per-qubit depth reached
	asap   arch.ASAPTracker
	sink   schedule.Sink
	chunks int
}

func newMeter(qubits int, dur arch.Durations, sink schedule.Sink) *meter {
	return &meter{dur: dur, level: make([]int, qubits), asap: *arch.NewASAPTracker(qubits), sink: sink}
}

func (m *meter) add(g circuit.Gate) {
	m.Gates++
	level := 0
	for _, q := range g.Qubits {
		level = max(level, m.level[q])
	}
	if g.Op != circuit.OpBarrier {
		level++
	}
	for _, q := range g.Qubits {
		m.level[q] = level
	}
	m.Depth = max(m.Depth, level)
	m.WeightedDepth = m.asap.Note(g.Qubits, m.dur.Of(g.Op))
}

// Flush implements schedule.Sink.
func (m *meter) Flush(chunk []schedule.ScheduledGate) error {
	for i := range chunk {
		m.add(chunk[i].Gate)
	}
	m.chunks++
	return m.sink.Flush(chunk)
}
