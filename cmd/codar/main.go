// Command codar maps an OpenQASM 2.0 circuit onto a NISQ architecture with
// the CODAR remapper (or the SABRE baseline) and reports weighted depth,
// swap count and the mapped circuit.
//
// Usage:
//
//	codar -arch tokyo -in circuit.qasm [-algo codar|sabre] [-out mapped.qasm]
//	      [-durations superconducting|iontrap|neutralatom|uniform]
//	      [-seed 1] [-verify] [-stats] [-calib calibration.json] [-lambda 8]
//	      [-portfolio] [-seeds 1,2] [-objective min-depth|min-swaps|max-esp]
//	      [-workers 0]
//
// With no -in, the circuit is read from stdin. -calib attaches a
// calibration snapshot (see internal/calib): placement and routing then run
// under the fidelity-weighted metric and the stats report the estimated
// success probability.
//
// -portfolio replaces the single-shot pipeline with the multi-start
// portfolio search (internal/portfolio): every -seeds seed × placement
// method × {codar, sabre} candidate races over the worker pool, the
// -objective picks the winner deterministically, and the per-candidate
// report is printed before the usual stats. The single-shot-only flags
// -algo and -seed are rejected in portfolio mode (the portfolio races both
// algorithms over -seeds), just as -seeds/-objective/-workers are rejected
// without -portfolio.
//
// -stream maps the circuit without ever materializing it: the QASM is
// parsed incrementally, gates flow through a bounded window into the
// streaming remapper (compile.Stream), and the mapped circuit is written
// out chunk by chunk. Resident memory is O(window), so million-gate
// circuits map in a few dozen megabytes. A stream starts from the trivial
// initial layout, because SABRE's reverse traversal needs the whole
// circuit; its output is byte-identical to a batch mapping from the
// trivial layout, not to codar's batch output, which places by the
// reverse traversal at -seed. Flags that need the whole circuit in memory
// (-portfolio, -seed, -verify, -gantt, -optimize, -orient) are rejected in
// stream mode.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"codar/internal/arch"
	"codar/internal/calib"
	"codar/internal/circuit"
	"codar/internal/compile"
	"codar/internal/core"
	"codar/internal/metrics"
	"codar/internal/optimize"
	"codar/internal/orient"
	"codar/internal/placement"
	"codar/internal/portfolio"
	"codar/internal/qasm"
	"codar/internal/schedule"
	"codar/internal/verify"
)

func main() {
	cfg, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "codar:", err)
		os.Exit(2)
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "codar:", err)
		os.Exit(1)
	}
}

// config is the parsed codar command line.
type config struct {
	archName  string
	algo      string
	inPath    string
	outPath   string
	durations string
	seed      int64
	doVerify  bool
	stats     bool
	window    int
	lookahead int
	optimise  bool
	orientCX  bool
	gantt     bool
	calibPath string
	lambda    float64
	stream    bool

	portfolioMode bool
	seeds         []int64
	objective     portfolio.Objective
	workers       int
}

// parseFlags parses and validates the command line. Leftover positional
// arguments and out-of-range values are errors printed to stderr with
// usage, so main exits non-zero (PR 4 flag-hardening contract).
func parseFlags(args []string, stderr io.Writer) (*config, error) {
	fs := flag.NewFlagSet("codar", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := &config{}
	var seedsCSV, objective string
	fs.StringVar(&cfg.archName, "arch", "tokyo", "target architecture (q5|melbourne|tokyo|enfield|sycamore|gridRxC|linearN|ringN)")
	fs.StringVar(&cfg.algo, "algo", "codar", "mapping algorithm: codar or sabre")
	fs.StringVar(&cfg.inPath, "in", "", "input OpenQASM file (default stdin)")
	fs.StringVar(&cfg.outPath, "out", "", "write the mapped circuit as OpenQASM to this file")
	fs.StringVar(&cfg.durations, "durations", "superconducting", "duration preset: superconducting|iontrap|neutralatom|uniform")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed for the SABRE reverse-traversal initial mapping")
	fs.BoolVar(&cfg.doVerify, "verify", false, "verify the mapped circuit (compliance + equivalence [+ statevector on small devices])")
	fs.BoolVar(&cfg.stats, "stats", true, "print mapping statistics")
	fs.IntVar(&cfg.window, "window", 0, "CODAR commutative-front window (0 = default)")
	fs.IntVar(&cfg.lookahead, "lookahead", 0, "CODAR look-ahead tie-breaker size (0 = default, negative = off)")
	fs.BoolVar(&cfg.optimise, "optimize", false, "run peephole optimisation (inverse cancellation, rotation merge) before mapping")
	fs.BoolVar(&cfg.orientCX, "orient", false, "orient CXs for directed devices and lower SWAPs after mapping")
	fs.BoolVar(&cfg.gantt, "gantt", false, "print a per-qubit ASCII timeline of the mapped circuit")
	fs.StringVar(&cfg.calibPath, "calib", "", "calibration snapshot JSON; enables fidelity-weighted placement and routing")
	fs.Float64Var(&cfg.lambda, "lambda", 0, "error-term gain of the calibrated metric (0 = default, negative = hop-only)")
	fs.BoolVar(&cfg.stream, "stream", false, "map the circuit as a stream with bounded memory, from the trivial initial layout instead of SABRE's reverse traversal (rejects whole-circuit flags)")
	fs.BoolVar(&cfg.portfolioMode, "portfolio", false, "run the multi-start portfolio search instead of a single-shot mapping")
	fs.StringVar(&seedsCSV, "seeds", "1,2", "portfolio seed list, comma-separated (e.g. 1,2,3)")
	fs.StringVar(&objective, "objective", "min-depth", "portfolio objective: min-depth|min-swaps|max-esp")
	fs.IntVar(&cfg.workers, "workers", 0, "portfolio worker-pool size (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		fs.Usage()
		return nil, fmt.Errorf("unexpected arguments: %v (flags go before positional input; use -in for the circuit file)", fs.Args())
	}
	// Mode-specific flags must not be silently ignored (the flag-hardening
	// contract: misused flags error, exit non-zero). Explicitly spelled
	// defaults count as usage: -seeds/-objective/-workers only drive the
	// portfolio, -algo/-seed only the single-shot pipeline.
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if !cfg.portfolioMode {
		for _, name := range []string{"seeds", "objective", "workers"} {
			if explicit[name] {
				return nil, fmt.Errorf("-%s requires -portfolio", name)
			}
		}
	} else {
		for _, name := range []string{"algo", "seed"} {
			if explicit[name] {
				return nil, fmt.Errorf("-%s is single-shot only; the portfolio races both algorithms over -seeds", name)
			}
		}
	}
	if cfg.stream {
		if cfg.portfolioMode {
			return nil, fmt.Errorf("-stream cannot be combined with -portfolio; the portfolio needs the whole circuit in memory")
		}
		for _, name := range []string{"seed", "verify", "gantt", "optimize", "orient"} {
			if explicit[name] {
				return nil, fmt.Errorf("-%s needs the whole circuit in memory and cannot be combined with -stream", name)
			}
		}
	}
	if _, err := compile.ParseAlgorithm(cfg.algo); err != nil {
		return nil, fmt.Errorf("-algo must be codar or sabre, got %q", cfg.algo)
	}
	if _, ok := arch.DurationsByName(cfg.durations); !ok {
		return nil, fmt.Errorf("unknown duration preset %q", cfg.durations)
	}
	if cfg.workers < 0 {
		return nil, fmt.Errorf("-workers must be >= 0, got %d", cfg.workers)
	}
	var err error
	if cfg.objective, err = portfolio.ParseObjective(objective); err != nil {
		return nil, err
	}
	if cfg.seeds, err = parseSeeds(seedsCSV); err != nil {
		return nil, err
	}
	if cfg.objective == portfolio.ObjectiveMaxESP && cfg.calibPath == "" {
		return nil, fmt.Errorf("-objective max-esp needs -calib")
	}
	return cfg, nil
}

// parseSeeds parses the -seeds comma-separated list.
func parseSeeds(csv string) ([]int64, error) {
	parts := strings.Split(csv, ",")
	seeds := make([]int64, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		s, err := strconv.ParseInt(p, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("-seeds: bad seed %q", p)
		}
		seeds = append(seeds, s)
	}
	if len(seeds) == 0 {
		return nil, fmt.Errorf("-seeds must list at least one seed")
	}
	return seeds, nil
}

func run(cfg *config) error {
	dev, err := arch.ByName(cfg.archName)
	if err != nil {
		return err
	}
	dev.Durations, _ = arch.DurationsByName(cfg.durations)

	var (
		snap *calib.Snapshot
		cost *arch.CostModel
	)
	if cfg.calibPath != "" {
		if snap, err = calib.Load(cfg.calibPath); err != nil {
			return err
		}
		if cost, err = snap.CostModel(dev, cfg.lambda); err != nil {
			return err
		}
	}

	if cfg.stream {
		return runStream(cfg, dev, snap, cost)
	}

	src, err := readInput(cfg.inPath)
	if err != nil {
		return err
	}
	parsed, err := qasm.Parse(src)
	if err != nil {
		return err
	}
	c := circuit.Decompose(parsed)
	if cfg.optimise {
		var ores optimize.Result
		c, ores = optimize.Cancel(c)
		fmt.Fprintf(os.Stderr, "optimize: removed %d gates, merged %d rotations\n", ores.Removed, ores.Merged)
	}
	if c.NumQubits > dev.NumQubits {
		return fmt.Errorf("circuit needs %d qubits but %s has %d", c.NumQubits, dev.Name, dev.NumQubits)
	}

	var res *compile.Result
	algoLabel := cfg.algo
	if cfg.portfolioMode {
		pres, err := runPortfolio(cfg, c, dev, snap, cost)
		if err != nil {
			return err
		}
		wr := pres.WinnerReport()
		res = pres.Winner
		algoLabel = fmt.Sprintf("portfolio(%s) → seed %d / %s / %s", pres.Objective, wr.Seed, wr.Placement, wr.Algorithm)
	} else if res, err = compile.Run(c, dev, compile.Spec{
		Algorithm: compile.Algorithm(cfg.algo),
		Placement: placement.MethodSabreReverse,
		Seed:      cfg.seed,
		Cost:      cost,
		Codar:     core.Options{Window: cfg.window, Lookahead: cfg.lookahead},
	}); err != nil {
		return err
	}
	mapped := res.Circuit

	if cfg.doVerify {
		if err := verify.Full(c, mapped, dev, res.InitialLayout, res.FinalLayout); err != nil {
			return fmt.Errorf("verification failed: %w", err)
		}
		fmt.Fprintln(os.Stderr, "verification: ok")
	}

	if cfg.orientCX || dev.Directed() {
		oriented, ores, err := orient.Pass(mapped, dev, cfg.orientCX)
		if err != nil {
			return err
		}
		mapped = oriented
		if ores.Reversed > 0 || ores.LoweredSwaps > 0 {
			fmt.Fprintf(os.Stderr, "orient: reversed %d CXs, lowered %d SWAPs\n", ores.Reversed, ores.LoweredSwaps)
		}
	}

	if cfg.gantt {
		fmt.Fprint(os.Stderr, schedule.ASAP(mapped, dev.Durations).Gantt(100))
	}

	if cfg.stats {
		// Measured after orientation, so the numbers describe the circuit
		// that is written out.
		m, err := compile.Measure(mapped, dev, snap)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "device:          %s\n", dev)
		fmt.Fprintf(os.Stderr, "algorithm:       %s\n", algoLabel)
		fmt.Fprintf(os.Stderr, "input gates:     %d (depth %d, %d qubits)\n", c.Len(), c.Depth(), c.NumQubits)
		fmt.Fprintf(os.Stderr, "output gates:    %d (depth %d)\n", m.Gates, m.Depth)
		fmt.Fprintf(os.Stderr, "swaps inserted:  %d\n", res.Swaps)
		fmt.Fprintf(os.Stderr, "weighted depth:  %d cycles\n", m.WeightedDepth)
		if snap != nil {
			fmt.Fprintf(os.Stderr, "calibration:     %s (est. success probability %.4g)\n", snap.Hash()[:12], *m.ESP)
		}
	}

	if cfg.outPath != "" {
		if err := os.WriteFile(cfg.outPath, []byte(qasm.Write(mapped)), 0o644); err != nil {
			return err
		}
	} else if !cfg.stats {
		fmt.Print(qasm.Write(mapped))
	}
	return nil
}

// runStream runs the bounded-memory pipeline: incremental QASM parse →
// streaming decomposition → compile.Stream → incremental QASM write. The
// initial layout is trivial (SABRE reverse traversal is O(gates) and would
// defeat streaming); the mapped circuit goes to -out, or to stdout when
// -stats is off, gate by gate as chunks flush. -out is replaced only by a
// complete mapping: on any error it keeps its previous contents (or stays
// absent).
func runStream(cfg *config, dev *arch.Device, snap *calib.Snapshot, cost *arch.CostModel) error {
	var rd io.Reader = os.Stdin
	if cfg.inPath != "" {
		f, err := os.Open(cfg.inPath)
		if err != nil {
			return err
		}
		defer f.Close()
		rd = f
	}
	st, err := qasm.NewStream(rd)
	if err != nil {
		return err
	}
	if st.NumQubits() > dev.NumQubits {
		return fmt.Errorf("circuit needs %d qubits but %s has %d", st.NumQubits(), dev.Name, dev.NumQubits)
	}
	src := circuit.NewDecomposeSource(st)

	var out io.Writer = io.Discard
	var finish func() error
	switch {
	case cfg.outPath != "":
		f, err := createOut(cfg.outPath)
		if err != nil {
			return err
		}
		defer f.abort()
		bw := bufio.NewWriterSize(f, 1<<16)
		out = bw
		finish = func() error {
			if err := bw.Flush(); err != nil {
				return err
			}
			return f.commit()
		}
	case !cfg.stats:
		bw := bufio.NewWriterSize(os.Stdout, 1<<16)
		out = bw
		finish = bw.Flush
	}
	sw, err := qasm.NewStreamWriter(out, dev.NumQubits, st.NumClbits())
	if err != nil {
		return err
	}
	res, err := compile.Stream(src, dev, compile.Spec{
		Algorithm: compile.Algorithm(cfg.algo),
		Placement: placement.MethodTrivial,
		Cost:      cost,
		Codar:     core.Options{Window: cfg.window, Lookahead: cfg.lookahead},
		Sink: schedule.FuncSink(func(chunk []schedule.ScheduledGate) error {
			for i := range chunk {
				if err := sw.WriteGate(chunk[i].Gate); err != nil {
					return err
				}
			}
			return nil
		}),
	})
	if err != nil {
		return err
	}
	if finish != nil {
		if err := finish(); err != nil {
			return err
		}
	}

	if cfg.stats {
		fmt.Fprintf(os.Stderr, "device:          %s\n", dev)
		fmt.Fprintf(os.Stderr, "algorithm:       %s (streaming, trivial layout)\n", cfg.algo)
		fmt.Fprintf(os.Stderr, "input gates:     %d (%d qubits)\n", st.Gates(), st.NumQubits())
		fmt.Fprintf(os.Stderr, "output gates:    %d (%d chunks)\n", res.Gates, res.Chunks)
		fmt.Fprintf(os.Stderr, "swaps inserted:  %d\n", res.Swaps)
		fmt.Fprintf(os.Stderr, "weighted depth:  %d cycles\n", res.WeightedDepth)
		if snap != nil {
			fmt.Fprintf(os.Stderr, "calibration:     %s (metric only; ESP reporting needs batch mode)\n", snap.Hash()[:12])
		}
	}
	return nil
}

// outFile is -out in stream mode. A regular file, or a new path, is
// written as a temporary file beside it that commit renames over it, so a
// run that fails part-way leaves -out as it was. Anything else (a
// terminal, a pipe, /dev/stdout) has no contents to keep and is written
// in place.
type outFile struct {
	*os.File
	dest      string // rename target; "" when written in place
	committed bool
}

func createOut(path string) (*outFile, error) {
	mode := os.FileMode(0o644)
	if fi, err := os.Stat(path); err == nil {
		if !fi.Mode().IsRegular() {
			f, err := os.Create(path)
			if err != nil {
				return nil, err
			}
			return &outFile{File: f}, nil
		}
		mode = fi.Mode().Perm()
	}
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".*.tmp")
	if err != nil {
		return nil, err
	}
	o := &outFile{File: f, dest: path}
	if err := f.Chmod(mode); err != nil {
		o.abort()
		return nil, err
	}
	return o, nil
}

// commit closes the file and moves it into place.
func (o *outFile) commit() error {
	if err := o.Close(); err != nil {
		return err
	}
	if o.dest != "" {
		if err := os.Rename(o.Name(), o.dest); err != nil {
			return err
		}
	}
	o.committed = true
	return nil
}

// abort closes the file and removes the temporary one, if any; after a
// successful commit it does nothing.
func (o *outFile) abort() {
	if o.committed {
		return
	}
	o.Close()
	if o.dest != "" {
		os.Remove(o.Name())
	}
}

// runPortfolio executes the portfolio search and prints the per-candidate
// report to stderr.
func runPortfolio(cfg *config, c *circuit.Circuit, dev *arch.Device, snap *calib.Snapshot, cost *arch.CostModel) (*portfolio.Result, error) {
	spec := portfolio.Spec{
		Seeds:        cfg.seeds,
		Objective:    cfg.objective,
		Workers:      cfg.workers,
		EarlyAbandon: true,
		Snapshot:     snap,
		Cost:         cost,
		Codar:        core.Options{Window: cfg.window, Lookahead: cfg.lookahead},
	}
	res, err := portfolio.Run(c, dev, spec)
	if err != nil {
		return nil, err
	}
	norm := spec.Normalized()
	fmt.Fprintf(os.Stderr, "portfolio: %d candidates (%d seeds × %d placements × %d algorithms), objective %s\n",
		len(res.Candidates), len(norm.Seeds), len(norm.Placements), len(norm.Algorithms), res.Objective)
	t := metrics.NewTable("cand", "seed", "placement", "algo", "depth", "swaps", "esp", "status")
	for _, r := range res.Candidates {
		status := "ok"
		switch {
		case r.Err != "":
			status = "error: " + r.Err
		case r.Abandoned:
			status = "abandoned"
		case r.Index == res.WinnerIndex:
			status = "winner"
		}
		t.AddRow(r.Index, r.Seed, string(r.Placement), string(r.Algorithm), r.Depth, r.Swaps, r.ESP, status)
	}
	if err := t.Render(os.Stderr); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "portfolio: completed=%d abandoned=%d\n", res.Completed, res.Abandoned)
	return res, nil
}

func readInput(path string) (string, error) {
	if path == "" {
		b, err := io.ReadAll(os.Stdin)
		return string(b), err
	}
	b, err := os.ReadFile(path)
	return string(b), err
}
