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
	"codar/internal/qasm"
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
// one circuit.Assembly. It runs on a fresh Worker, so its result stays
// valid.
func Run(c *circuit.Circuit, dev *arch.Device, spec Spec) (*Result, error) {
	return new(Worker).Run(c, dev, spec)
}

// Place computes the initial layout of Spec.Placement at Spec.Seed, under
// the Spec's Ctx and Cost, on fresh memory.
func Place(a *circuit.Assembly, dev *arch.Device, spec Spec) (*arch.Layout, error) {
	return place(a, dev, spec, nil)
}

// place is Place on the SABRE mapper x, or on fresh memory when x is nil.
func place(a *circuit.Assembly, dev *arch.Device, spec Spec, x *sabre.Mapper) (*arch.Layout, error) {
	initial, err := placement.Generate(spec.Placement, a, dev, spec.Seed, sabre.Options{Ctx: spec.Ctx, Cost: spec.Cost}, x)
	if err != nil {
		return nil, &Error{StageLayout, err}
	}
	return initial, nil
}

// Route maps the assembly from initial with Spec.Algorithm, and the
// baseline from the same layout, on a fresh Worker. The layout is only
// read.
func Route(a *circuit.Assembly, dev *arch.Device, initial *arch.Layout, spec Spec) (*Result, error) {
	if err := spec.checkCodar(); err != nil {
		return nil, err
	}
	return new(Worker).route(a, dev, initial, spec)
}

// Stream maps a lowered gate stream that fits dev, on a fresh Worker. A
// stream is never whole, so it takes only the trivial placement and needs
// a sink; its output and summary equal Run's under the same Spec.
func Stream(src circuit.Source, dev *arch.Device, spec Spec) (*Result, error) {
	if spec.Placement != placement.MethodTrivial || spec.Sink == nil {
		return nil, errors.New("compile: a stream takes the trivial placement and needs a sink")
	}
	if err := spec.checkCodar(); err != nil {
		return nil, err
	}
	return new(Worker).mapWith(&spec, spec.Algorithm, string(spec.Algorithm), nil, src, dev, nil)
}

// The retention caps bound what a Worker keeps between calls: a call that
// grows its memory past them drops all of it when it returns, so a worker
// that once compiled a huge circuit, or parsed a huge input, does not hold
// that memory for good.
const (
	// retainGates caps the circuits, at four times the largest circuit of
	// the service benchmark's mix. A lowered gate has at most two qubits,
	// a barrier aside, so a circuit counts as the larger of its gates and
	// half its qubit operands.
	retainGates = 1 << 14
	// retainBytes caps the parser's memory and the rendered text, which a
	// source can grow past what its gates need: the parser reserves its
	// gate slice from the source's statement ends, comments included, and
	// a failed parse keeps what it grew. A program of retainGates gates
	// takes 1.3 MB in the parser and 0.3 MB as mapped text.
	retainBytes = 2 << 20
)

// Worker is one goroutine's compile context (DESIGN.md §15): the parser's
// and the lowering's storage, the assembly, one SABRE mapper for both
// placement passes and the baseline, one CODAR engine for batch and
// stream runs, the meter and the rendered output. Every call reloads this
// memory instead of allocating it. What a call returns lives in the
// worker's memory: a parsed circuit is valid until the next Parse, a
// Result until the next Parse or Run (its gates share their parameters
// with the input), and rendered text until the next Write or WriteChunk.
// A caller that keeps a result uses the package functions, each of which
// runs on fresh memory. The zero value is ready to use; a Worker serves
// one goroutine at a time.
type Worker struct {
	// The parser and both mappers are made on first use, so that a
	// package function's fresh worker allocates only what it runs.
	parser *qasm.Parser
	lower  circuit.Lowerer
	asm    circuit.Assembly
	sabre  *sabre.Mapper
	codar  *core.Engine
	meter  meter
	text   []byte
	// busy is set while a call runs. A call that finds it set follows one
	// that panicked and starts from fresh memory.
	busy bool
}

// mapper returns the worker's SABRE mapper.
func (w *Worker) mapper() *sabre.Mapper {
	if w.sabre == nil {
		w.sabre = new(sabre.Mapper)
	}
	return w.sabre
}

// engine returns the worker's CODAR engine.
func (w *Worker) engine() *core.Engine {
	if w.codar == nil {
		w.codar = new(core.Engine)
	}
	return w.codar
}

// begin marks a call on w.
func (w *Worker) begin() {
	if w.busy {
		*w = Worker{}
	}
	w.busy = true
}

// end closes a call on w, dropping all its memory when the call grew it
// past the retention caps.
func (w *Worker) end(grown bool) {
	w.busy = false
	if grown {
		*w = Worker{}
	}
}

// Parse reads OpenQASM source and lowers it to the base gate set: qasm.Parse
// and then circuit.Decompose, into the worker's memory.
func (w *Worker) Parse(src string) (*circuit.Circuit, error) {
	w.begin()
	if w.parser == nil {
		w.parser = new(qasm.Parser)
	}
	parsed, err := w.parser.Parse(src)
	if err != nil {
		w.end(w.parser.Footprint() > retainBytes)
		return nil, err
	}
	c := w.lower.Decompose(parsed)
	w.end(w.parser.Footprint() > retainBytes || len(c.Gates) > retainGates)
	return c, nil
}

// Write renders c as qasm.Write does, into the worker's memory.
func (w *Worker) Write(c *circuit.Circuit) []byte {
	return w.keepText(qasm.Append(w.text[:0], c))
}

// WriteChunk renders the gate statements of a stream chunk, as
// qasm.AppendGate does, into the worker's memory. A sink may call it while
// a run on w flushes the chunk.
func (w *Worker) WriteChunk(chunk []schedule.ScheduledGate) []byte {
	text := w.text[:0]
	for i := range chunk {
		text = qasm.AppendGate(text, chunk[i].Gate)
	}
	return w.keepText(text)
}

// keepText keeps the memory of the rendered text for the next rendering,
// unless it grew past retainBytes, and returns the text.
func (w *Worker) keepText(text []byte) []byte {
	if cap(text) > retainBytes {
		w.text = nil
	} else {
		w.text = text
	}
	return text
}

// Run is the package's Run on w: Place, then Route, over the worker's
// assembly of c.
func (w *Worker) Run(c *circuit.Circuit, dev *arch.Device, spec Spec) (*Result, error) {
	if err := spec.checkCodar(); err != nil {
		return nil, err
	}
	w.begin()
	w.asm.Load(c)
	initial, err := place(&w.asm, dev, spec, w.mapper())
	var res *Result
	if err == nil {
		res, err = w.route(&w.asm, dev, initial, spec)
	}
	w.end(max(len(c.Gates), len(w.asm.SoA.Qubits)/2) > retainGates)
	return res, err
}

// route maps the assembly from initial with Spec.Algorithm, whole or
// through the Spec's sink, and the baseline from the same layout.
func (w *Worker) route(a *circuit.Assembly, dev *arch.Device, initial *arch.Layout, spec Spec) (*Result, error) {
	if spec.Sink != nil {
		return w.mapWith(&spec, spec.Algorithm, string(spec.Algorithm), nil, circuit.NewSliceSource(a.Circ), dev, initial)
	}
	res, err := w.mapWith(&spec, spec.Algorithm, string(spec.Algorithm), a, nil, dev, initial)
	if err != nil || !spec.Baseline {
		return res, err
	}
	if spec.Algorithm == Sabre {
		// The baseline is the same SABRE run from the same layout.
		b := *res
		res.Baseline = &b
		return res, nil
	}
	if res.Baseline, err = w.mapWith(&spec, Sabre, StageBaseline, a, nil, dev, initial); err != nil {
		return nil, err
	}
	return res, nil
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

// mapWith maps from initial with algo on the worker's mappers, failing as
// stage: the assembly whole, or src through the meter into the Spec's
// sink. A whole output is measured after the run, a stream as it emits.
func (w *Worker) mapWith(s *Spec, algo Algorithm, stage string, a *circuit.Assembly, src circuit.Source, dev *arch.Device, initial *arch.Layout) (*Result, error) {
	copts := s.Codar
	copts.Ctx, copts.Cost, copts.DepthBound = s.Ctx, s.Cost, s.DepthBound
	sopts := sabre.Options{Ctx: s.Ctx, Cost: s.Cost, DepthBound: s.DepthBound}
	m := &w.meter
	if a == nil {
		m.reset(dev.NumQubits, dev.Durations, s.Sink)
	}
	res := &Result{}
	var err error
	switch {
	case algo == Codar && a != nil:
		var r *core.Result
		if r, err = w.engine().RemapAssembled(a, dev, initial, copts); err == nil {
			res.Circuit, res.InitialLayout, res.FinalLayout, res.Swaps = r.Circuit, r.InitialLayout, r.FinalLayout, r.SwapCount
		}
	case algo == Sabre && a != nil:
		var r *sabre.Result
		if r, err = w.mapper().RemapAssembled(a, dev, initial, sopts); err == nil {
			res.Circuit, res.InitialLayout, res.FinalLayout, res.Swaps = r.Circuit, r.InitialLayout, r.FinalLayout, r.SwapCount
		}
	case algo == Codar:
		var r *core.StreamResult
		if r, err = w.engine().RemapStream(src, dev, initial, copts, m); err == nil {
			res.InitialLayout, res.FinalLayout, res.Swaps = r.InitialLayout, r.FinalLayout, r.SwapCount
		}
	case algo == Sabre:
		var r *sabre.StreamResult
		if r, err = w.mapper().RemapStream(src, dev, initial, sopts, m); err == nil {
			res.InitialLayout, res.FinalLayout, res.Swaps = r.InitialLayout, r.FinalLayout, r.SwapCount
		}
	default:
		_, err = ParseAlgorithm(string(algo))
	}
	if err != nil {
		return nil, &Error{stage, err}
	}
	if a == nil {
		res.Metrics, res.Chunks = m.Metrics, m.chunks
		return res, nil
	}
	res.Metrics, err = m.measure(res.Circuit, dev, s.Snapshot)
	return res, err
}

// Measure returns the metrics of a whole output, with the ESP under snap
// when snap is non-nil, from one ASAP schedule.
func Measure(c *circuit.Circuit, dev *arch.Device, snap *calib.Snapshot) (Metrics, error) {
	var m meter
	return m.measure(c, dev, snap)
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

// reset empties the meter for an output on qubits qubits under dur,
// passing chunks on to sink, and keeps its memory.
func (m *meter) reset(qubits int, dur arch.Durations, sink schedule.Sink) {
	*m = meter{dur: dur, level: circuit.Reuse(m.level, qubits), asap: m.asap, sink: sink}
	m.asap.Reset(qubits)
}

// measure resets the meter and measures the whole output c, with the ESP
// under snap when snap is non-nil, from one ASAP schedule.
func (m *meter) measure(c *circuit.Circuit, dev *arch.Device, snap *calib.Snapshot) (Metrics, error) {
	m.reset(c.NumQubits, dev.Durations, nil)
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
