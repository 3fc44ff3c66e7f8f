package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"codar/internal/arch"
	"codar/internal/circuit"
	"codar/internal/core"
	cmetrics "codar/internal/metrics"
	"codar/internal/qasm"
	"codar/internal/sabre"
	"codar/internal/schedule"
	"codar/internal/verify"
	"codar/internal/workloads"
)

// streamGates is the size of the stream-1m circuit; smoke runs use
// streamSmokeGates.
const (
	streamGates      = 1_000_000
	streamSmokeGates = 20_000
)

// streamSeed1SHA256 is the sha256 of the mapped QASM for seed 1, made once
// from batch core.Remap of the same circuit (TestRecordStreamReference).
// Streaming output must be byte-identical to batch.
const streamSeed1SHA256 = "e409f79969e6ff95b34bfa0b61817481971a3cd16f20df675946bb9176f3db2e"

// writeStreamInput renders the seeded random circuit to path as QASM and
// returns its gate count, qubit count and two-qubit gate count.
func writeStreamInput(path string, gates int, seed int64) (n, qubits, twoQ int, err error) {
	c := workloads.Random(16, gates, 45, seed)
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, 0, err
	}
	bw := bufio.NewWriter(f)
	sw, err := qasm.NewStreamWriter(bw, c.NumQubits, c.NumClbits)
	for i := 0; err == nil && i < len(c.Gates); i++ {
		err = sw.WriteGate(c.Gates[i])
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return c.Len(), c.NumQubits, c.TwoQubitCount(), err
}

// timedSource times every Next call of the source it wraps.
type timedSource struct {
	circuit.Source
	ns    int64
	calls int
}

func (s *timedSource) Next() (circuit.Gate, error) {
	t := time.Now()
	g, err := s.Source.Next()
	s.ns += time.Since(t).Nanoseconds()
	s.calls++
	return g, err
}

// hashCounter is the stream's output: it counts and hashes the bytes.
type hashCounter struct {
	h hash.Hash
	n int64
}

func (w *hashCounter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return w.h.Write(p)
}

// streamSink renders each flushed chunk as QASM and checks that every
// emitted two-qubit gate sits on a coupled pair.
type streamSink struct {
	dev      *arch.Device
	sw       *qasm.StreamWriter
	buf      []circuit.Gate
	nonSwap  int
	err      error // first compliance failure
	last     time.Time
	gaps     []float64 // ms between successive chunks
	rt       *runtimeReader
	peakLive uint64
	tr       *tracer
	parent   int
}

func (s *streamSink) Flush(chunk []schedule.ScheduledGate) error {
	now := time.Now()
	s.gaps = append(s.gaps, float64(now.Sub(s.last))/float64(time.Millisecond))
	s.last = now
	sp := s.tr.begin("sink", "", s.parent)
	defer s.tr.end(sp)
	w := s.tr.begin("qasm.stream_write", "", sp)
	s.buf = s.buf[:0]
	for i := range chunk {
		g := chunk[i].Gate
		if err := s.sw.WriteGate(g); err != nil {
			return err
		}
		if g.Op != circuit.OpSwap {
			s.nonSwap++
		}
		s.buf = append(s.buf, g)
	}
	s.tr.end(w)
	v := s.tr.begin("verify", "", sp)
	if err := verify.Compliance(&circuit.Circuit{NumQubits: s.dev.NumQubits, Gates: s.buf}, s.dev); err != nil && s.err == nil {
		s.err = err
	}
	s.tr.end(v)
	if live := s.rt.read().liveBytes; live > s.peakLive {
		s.peakLive = live
	}
	return nil
}

// streamPass is one mapping of the input file.
type streamPass struct {
	wall    time.Duration
	allocs  uint64
	res     *core.StreamResult
	sink    *streamSink
	out     *hashCounter
	inGates int // gates the parser delivered
	traced  bool
}

// runStreamPass maps the QASM file at path onto dev through the streaming
// pipeline: pull parser, lowering source, chunked CODAR engine, and a sink
// rendering QASM into a counting, hashing writer.
func runStreamPass(path string, dev *arch.Device, rt *runtimeReader, tr *tracer) (*streamPass, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	p := &streamPass{traced: tr != nil, out: &hashCounter{h: sha256.New()}}
	a0 := rt.read().allocBytes
	start := time.Now()
	root := tr.begin("pass", "", -1)
	defer tr.end(root)
	st, err := qasm.NewStream(f)
	if err != nil {
		return nil, err
	}
	sw, err := qasm.NewStreamWriter(p.out, dev.NumQubits, st.NumClbits())
	if err != nil {
		return nil, err
	}
	var src circuit.Source = circuit.NewDecomposeSource(st)
	var inner, outer *timedSource
	if tr != nil {
		inner = &timedSource{Source: st}
		outer = &timedSource{Source: circuit.NewDecomposeSource(inner)}
		src = outer
	}
	p.sink = &streamSink{dev: dev, sw: sw, last: start, rt: rt, tr: tr}
	engine := tr.begin("core.stream", "", root)
	p.sink.parent = engine
	p.res, err = core.RemapStream(src, dev, nil, core.Options{}, p.sink)
	tr.end(engine)
	if tr != nil {
		d := tr.add("circuit.decompose", "", engine, start, time.Duration(outer.ns), outer.calls)
		tr.add("qasm.stream", "", d, start, time.Duration(inner.ns), inner.calls)
	}
	p.wall = time.Since(start)
	p.allocs = rt.read().allocBytes - a0
	if err != nil {
		return nil, err
	}
	p.inGates = st.Gates()
	return p, nil
}

func runStream(cfg config) (*outcome, error) {
	o := newOutcome()
	// Set-up runs before the input is generated, so the generator's
	// garbage does not slow it.
	var dev *arch.Device
	setup, err := timeSetup(200, func() error {
		dev = arch.IBMQ20Tokyo()
		return nil
	})
	if err != nil {
		return nil, err
	}
	o.values["setup_s"] = setup

	gates := streamGates
	if cfg.smoke {
		gates = streamSmokeGates
	}
	path := filepath.Join(cfg.workDir, fmt.Sprintf("stream-1m-seed%d.qasm", cfg.seed))
	nGates, nQubits, twoQ, err := writeStreamInput(path, gates, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("write input: %w", err)
	}
	defer os.Remove(path)
	o.inputs["gates"] = float64(nGates)
	o.inputs["qubits"] = float64(nQubits)
	o.inputs["twoq_share"] = float64(twoQ) / float64(nGates)
	o.values["input.gates_per_op"] = float64(nGates)
	o.values["input.qubits_max"] = float64(nQubits)
	o.values["input.twoq_share"] = float64(twoQ) / float64(nGates)
	runtime.GC() // drop the generator's circuit before measuring the heap

	rt := newRuntimeReader()
	var tr *tracer
	if cfg.trace {
		tr = newTracer(true)
	}
	var (
		passes   []*streamPass
		start    = time.Now()
		rtBefore = rt.read()
		nTraced  int
	)
	var lastWall time.Duration
	for another(start, cfg.budget, len(passes), lastWall) || (cfg.trace && nTraced == 0) {
		// A traced run alternates untraced and traced passes.
		var ptr *tracer
		if cfg.trace && len(passes)%2 == 1 {
			ptr = tr
			nTraced++
		}
		p, err := runStreamPass(path, dev, rt, ptr)
		o.check(checkStreamPass(p, err, nGates, cfg))
		if err != nil {
			return o, nil
		}
		passes = append(passes, p)
		lastWall = p.wall
	}
	rtAfter := rt.read()

	// Every pass emits the same chunks, so chunk i's time is its median
	// over the run's passes, and a pass's time is the sum of those.
	var chunkGaps [][]float64
	var allocRates, plainWall, tracedWall []float64
	var peakLive uint64
	for _, p := range passes {
		if p.traced {
			tracedWall = append(tracedWall, p.wall.Seconds())
			continue
		}
		plainWall = append(plainWall, p.wall.Seconds())
		allocRates = append(allocRates, float64(p.allocs)/float64(nGates))
		for i, g := range p.sink.gaps {
			if i == len(chunkGaps) {
				chunkGaps = append(chunkGaps, nil)
			}
			chunkGaps[i] = append(chunkGaps[i], g)
		}
		if p.sink.peakLive > peakLive {
			peakLive = p.sink.peakLive
		}
	}
	gaps := medians(chunkGaps)
	var passMs float64
	for _, g := range gaps {
		passMs += g
	}

	// The quality reference: SABRE's streaming mapper on the same input.
	sp := tr.begin("sabre.stream", "", -1)
	sabreMakespan, err := sabreStreamMakespan(path, dev)
	tr.end(sp)
	o.check(err)
	if err != nil {
		return o, nil
	}
	o.inputs["passes"] = float64(len(passes))
	fmt.Fprintf(os.Stderr, "perfbench: stream-1m pass wall seconds %.3f\n", plainWall)

	last := passes[len(passes)-1]
	o.values["gates_per_s"] = float64(nGates) / (passMs / 1000)
	o.values["requests_per_s"] = float64(len(gaps)) / (passMs / 1000)
	o.values["compile_ms_p50"] = percentile(gaps, 0.50)
	o.values["compile_ms_p90"] = percentile(gaps, 0.90)
	o.values["speedup_geomean"] = float64(sabreMakespan) / float64(last.res.Makespan)
	o.values["alloc_bytes_per_gate"] = cmetrics.Median(allocRates)

	if cfg.trace {
		o.values["qasm.stream.gates"] = float64(last.inGates)
		o.values["core.stream.chunks"] = float64(last.res.Chunks)
		o.values["core.stream.swaps"] = float64(last.res.SwapCount)
		o.values["core.stream.cycles"] = float64(last.res.Cycles)
		o.values["qasm.stream_write.bytes"] = float64(last.out.n)
		o.values["trace.overhead"] = cmetrics.Median(tracedWall) / cmetrics.Median(plainWall)
		o.reportRuntime(rtBefore, rtAfter, float64(nGates*len(passes)), peakLive)
		if err := o.reportLayers(cfg, "stream-1m", tr, float64(nGates*nTraced), nTraced); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// checkStreamPass checks one pass: no error, every emitted gate compliant,
// every input gate emitted once (SWAPs aside) and, for the full-size seed 1
// input, output bytes equal to the recorded batch mapping.
func checkStreamPass(p *streamPass, err error, inGates int, cfg config) error {
	switch {
	case err != nil:
		return err
	case p.sink.err != nil:
		return p.sink.err
	case p.sink.nonSwap != inGates:
		return fmt.Errorf("stream emitted %d non-SWAP gates for %d input gates", p.sink.nonSwap, inGates)
	case p.res.Gates != p.sink.nonSwap+p.res.SwapCount:
		return fmt.Errorf("stream result counts %d gates, sink saw %d", p.res.Gates, p.sink.nonSwap+p.res.SwapCount)
	}
	if cfg.seed == 1 && !cfg.smoke {
		if got := hex.EncodeToString(p.out.h.Sum(nil)); got != streamSeed1SHA256 {
			return fmt.Errorf("stream output sha256 %s, recorded batch mapping %s", got, streamSeed1SHA256)
		}
	}
	return nil
}

// sabreStreamMakespan maps the QASM file at path with SABRE's streaming
// mapper and returns the weighted depth of its output.
func sabreStreamMakespan(path string, dev *arch.Device) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	st, err := qasm.NewStream(f)
	if err != nil {
		return 0, err
	}
	discard := schedule.FuncSink(func([]schedule.ScheduledGate) error { return nil })
	res, err := sabre.RemapStream(circuit.NewDecomposeSource(st), dev, nil, sabre.Options{}, discard)
	if err != nil {
		return 0, err
	}
	return res.Makespan, nil
}
