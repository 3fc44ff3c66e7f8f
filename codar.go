// Package codar is a from-scratch Go reproduction of "CODAR: A Contextual
// Duration-Aware Qubit Mapping for Various NISQ Devices" (Deng, Zhang & Li,
// DAC 2020). It provides:
//
//   - a quantum circuit IR with OpenQASM 2.0 parsing and writing;
//   - the maQAM device abstraction (coupling graph + gate-duration map)
//     with the paper's four evaluation architectures built in;
//   - the CODAR remapper (qubit locks, commutativity detection, the
//     ⟨Hbasic, Hfine⟩ heuristic) and the SABRE baseline it is evaluated
//     against;
//   - a duration-aware scheduler (weighted depth), a remapping verifier,
//     and a noisy statevector simulator for the fidelity experiment.
//
// This root package is a facade: it re-exports the library surface through
// type aliases and thin wrappers so downstream users need a single import.
//
// Quickstart:
//
//	c := codar.NewCircuit(3)
//	c.H(0).CX(0, 1).CX(0, 2)
//	dev, _ := codar.DeviceByName("tokyo")
//	res, _ := codar.Remap(c, dev, nil, codar.Options{})
//	fmt.Println(res.Makespan, res.SwapCount)
package codar

import (
	"codar/internal/arch"
	"codar/internal/calib"
	"codar/internal/circuit"
	"codar/internal/core"
	"codar/internal/optimize"
	"codar/internal/orient"
	"codar/internal/placement"
	"codar/internal/portfolio"
	"codar/internal/qasm"
	"codar/internal/sabre"
	"codar/internal/schedule"
	"codar/internal/sim"
	"codar/internal/transpile"
	"codar/internal/verify"
	"codar/internal/workloads"
)

// Re-exported core types. Aliases keep the internal packages hidden while
// exposing their full method sets.
type (
	// Circuit is an ordered gate sequence over logical or physical qubits.
	Circuit = circuit.Circuit
	// Gate is a single operation.
	Gate = circuit.Gate
	// Op identifies a gate kind.
	Op = circuit.Op
	// Device is the maQAM static structure: coupling graph plus durations.
	Device = arch.Device
	// Coord is a 2-D lattice coordinate used by the Hfine heuristic.
	Coord = arch.Coord
	// Layout is the logical-to-physical qubit mapping π.
	Layout = arch.Layout
	// Durations is the gate-duration map τ in clock cycles.
	Durations = arch.Durations
	// Schedule is a timed gate execution with its makespan.
	Schedule = schedule.Schedule
	// ScheduledGate is one timed gate of a Schedule.
	ScheduledGate = schedule.ScheduledGate
	// Options tunes the CODAR remapper.
	Options = core.Options
	// Result is a CODAR remapping outcome.
	Result = core.Result
	// SabreOptions tunes the SABRE baseline.
	SabreOptions = sabre.Options
	// SabreResult is a SABRE mapping outcome.
	SabreResult = sabre.Result
	// NoiseModel parameterises the dephasing/damping trajectory simulator.
	NoiseModel = sim.NoiseModel
	// State is a statevector.
	State = sim.State
	// Benchmark is one entry of the evaluation workload suite.
	Benchmark = workloads.Benchmark
	// Calibration is a device calibration snapshot: per-edge 2Q error,
	// per-qubit 1Q/readout error and T1/T2.
	Calibration = calib.Snapshot
	// CostModel is a calibration-weighted routing metric accepted by both
	// mappers' Options.Cost and by PortfolioOptions.Cost.
	CostModel = arch.CostModel
)

// ErrCanceled and ErrDeadline are the pipeline-wide cancellation sentinels:
// Remap, RemapSABRE and MapPortfolio return them (wrapped) when the context
// carried in their options fires mid-run. errors.Is also matches
// context.Canceled / context.DeadlineExceeded respectively.
var (
	ErrCanceled = core.ErrCanceled
	ErrDeadline = core.ErrDeadline
)

// Commonly used gate kinds, re-exported for building circuits directly.
const (
	OpX       = circuit.OpX
	OpY       = circuit.OpY
	OpZ       = circuit.OpZ
	OpH       = circuit.OpH
	OpS       = circuit.OpS
	OpT       = circuit.OpT
	OpRX      = circuit.OpRX
	OpRY      = circuit.OpRY
	OpRZ      = circuit.OpRZ
	OpU1      = circuit.OpU1
	OpU3      = circuit.OpU3
	OpCX      = circuit.OpCX
	OpCZ      = circuit.OpCZ
	OpSwap    = circuit.OpSwap
	OpCP      = circuit.OpCP
	OpCCX     = circuit.OpCCX
	OpMeasure = circuit.OpMeasure
	OpBarrier = circuit.OpBarrier
)

// NewCircuit creates an empty circuit over n qubits.
func NewCircuit(n int) *Circuit { return circuit.New(n) }

// NewNamedCircuit creates an empty named circuit over n qubits.
func NewNamedCircuit(name string, n int) *Circuit { return circuit.NewNamed(name, n) }

// ParseQASM compiles OpenQASM 2.0 source into a circuit.
func ParseQASM(src string) (*Circuit, error) { return qasm.Parse(src) }

// WriteQASM renders a circuit as OpenQASM 2.0.
func WriteQASM(c *Circuit) string { return qasm.Write(c) }

// Decompose lowers compound gates (ccx, cp, rzz, swap) to the base set the
// remappers accept.
func Decompose(c *Circuit) *Circuit { return circuit.Decompose(c) }

// DeviceByName resolves a built-in device: "q5", "melbourne", "tokyo",
// "enfield", "sycamore", "gridRxC", "linearN", "ringN".
func DeviceByName(name string) (*Device, error) { return arch.ByName(name) }

// NewDevice builds a custom device from an undirected coupling list with
// superconducting default durations.
func NewDevice(name string, numQubits int, edges [][2]int) (*Device, error) {
	return arch.NewDevice(name, numQubits, edges)
}

// EvaluationDevices returns the paper's four Fig 8 architectures.
func EvaluationDevices() []*Device { return arch.EvaluationDevices() }

// Duration presets from the paper's Table I.
var (
	// SuperconductingDurations: 1q = 1, 2q = 2, SWAP = 6 cycles.
	SuperconductingDurations = arch.SuperconductingDurations
	// IonTrapDurations: 2q ≈ 12x 1q.
	IonTrapDurations = arch.IonTrapDurations
	// NeutralAtomDurations: 2q not slower than 1q.
	NeutralAtomDurations = arch.NeutralAtomDurations
	// UniformDurations: every gate 1 cycle (ablation).
	UniformDurations = arch.UniformDurations
)

// TrivialLayout maps logical qubit i to physical qubit i.
func TrivialLayout(logical, physical int) *Layout { return arch.NewTrivialLayout(logical, physical) }

// NewLayout builds a layout from an explicit logical→physical assignment.
func NewLayout(assignment []int, physical int) (*Layout, error) {
	return arch.NewLayout(assignment, physical)
}

// Remap runs the CODAR remapper on c targeting dev from the given initial
// layout (nil = trivial). The circuit must be lowered (see Decompose).
func Remap(c *Circuit, dev *Device, initial *Layout, opts Options) (*Result, error) {
	return core.Remap(c, dev, initial, opts)
}

// RemapSABRE runs the SABRE baseline under the same contract as Remap.
func RemapSABRE(c *Circuit, dev *Device, initial *Layout, opts SabreOptions) (*SabreResult, error) {
	return sabre.Remap(c, dev, initial, opts)
}

// SABREInitialLayout computes the reverse-traversal initial mapping the
// paper gives to both mappers for a fair comparison (§V-A).
func SABREInitialLayout(c *Circuit, dev *Device, seed int64) (*Layout, error) {
	return sabre.InitialLayout(c, dev, seed, sabre.Options{})
}

// SABREInitialLayoutOptions is SABREInitialLayout with explicit SABRE
// options — most usefully a calibration cost model, so placement also avoids
// unreliable couplers. Placement ignores opts.DepthBound, which only
// abandons routing runs.
func SABREInitialLayoutOptions(c *Circuit, dev *Device, seed int64, opts SabreOptions) (*Layout, error) {
	return sabre.InitialLayout(c, dev, seed, opts)
}

// PortfolioOptions configures a multi-start portfolio run (see
// internal/portfolio): seeds × placement methods × algorithms, scored by a
// pluggable objective with deterministic selection. Cost places and routes
// every candidate under a calibration metric; Codar tunes the CODAR
// candidates.
type PortfolioOptions = portfolio.Spec

// PortfolioResult is a portfolio run outcome: the winner's mapping and
// metrics (WeightedDepth, Swaps, and ESP under a snapshot) plus a
// per-candidate report.
type PortfolioResult = portfolio.Result

// PortfolioObjective names a portfolio scoring rule.
type PortfolioObjective = portfolio.Objective

// Portfolio objectives.
const (
	// ObjectiveMinDepth selects the shallowest schedule (weighted depth).
	ObjectiveMinDepth = portfolio.ObjectiveMinDepth
	// ObjectiveMinSwaps selects the fewest inserted SWAPs.
	ObjectiveMinSwaps = portfolio.ObjectiveMinSwaps
	// ObjectiveMaxESP selects the highest calibration-estimated success
	// probability (requires PortfolioOptions.Snapshot).
	ObjectiveMaxESP = portfolio.ObjectiveMaxESP
)

// MapPortfolio runs the multi-start portfolio search: K candidate pipelines
// (seeds × placement methods × {codar, sabre}) race over a bounded worker
// pool, each placed and routed by the same pipeline as a single mapping,
// every completed output is scored by the objective, and the winner is
// selected by a total order (objective, weighted depth, swaps, candidate
// index) — deterministic regardless of goroutine timing. The zero options
// select seeds {1, 2}, all placements, both algorithms and min-depth.
func MapPortfolio(c *Circuit, dev *Device, opts PortfolioOptions) (*PortfolioResult, error) {
	return portfolio.Run(c, dev, opts)
}

// PlacementMethod names an initial-layout strategy.
type PlacementMethod = placement.Method

// Initial-layout strategies (see internal/placement).
const (
	PlaceTrivial      = placement.MethodTrivial
	PlaceRandom       = placement.MethodRandom
	PlaceDense        = placement.MethodDense
	PlaceSabreReverse = placement.MethodSabreReverse
)

// Place generates an initial layout with the named strategy.
func Place(m PlacementMethod, c *Circuit, dev *Device, seed int64) (*Layout, error) {
	return placement.Generate(m, circuit.Assemble(c), dev, seed, sabre.Options{})
}

// ScheduleASAP schedules a hardware-compliant circuit under τ and returns
// the timed execution.
func ScheduleASAP(c *Circuit, d Durations) *Schedule { return schedule.ASAP(c, d) }

// WeightedDepth returns the paper's figure of merit: the makespan of the
// ASAP schedule of c under τ.
func WeightedDepth(c *Circuit, d Durations) int { return schedule.WeightedDepth(c, d) }

// Verify checks that mapped faithfully implements original on dev: coupling
// compliance, permutation-tracked equivalence and (on small devices) exact
// statevector equality.
func Verify(original, mapped *Circuit, dev *Device, initial, final *Layout) error {
	return verify.Full(original, mapped, dev, initial, final)
}

// Simulate runs a circuit on the statevector simulator from |0...0>.
func Simulate(c *Circuit) (*State, error) { return sim.Run(c) }

// DephasingNoise returns a dephasing-dominant noise model (T2 in cycles).
func DephasingNoise(t2 float64) NoiseModel { return sim.DephasingDominant(t2) }

// DampingNoise returns a damping-dominant noise model (T1 in cycles).
func DampingNoise(t1 float64) NoiseModel { return sim.DampingDominant(t1) }

// EstimateFidelity Monte-Carlo-averages the fidelity of a scheduled circuit
// under the noise model across the given number of trajectories.
func EstimateFidelity(m NoiseModel, s *Schedule, trajectories int, seed int64) (float64, error) {
	return m.FidelityEstimate(s, trajectories, seed)
}

// OptimizeResult summarises a peephole-optimisation run.
type OptimizeResult = optimize.Result

// Optimize applies semantics-preserving peephole rewrites (inverse-pair
// cancellation, rotation merging) to a fixpoint.
func Optimize(c *Circuit) (*Circuit, OptimizeResult) { return optimize.Cancel(c) }

// PipelineResult aggregates the full optimisation pipeline statistics.
type PipelineResult = optimize.PipelineResult

// OptimizePipeline runs the full pre-mapping cleanup: cancellation,
// single-qubit fusion to u3, and a final cancellation pass.
func OptimizePipeline(c *Circuit) (*Circuit, PipelineResult) { return optimize.Pipeline(c) }

// TranspileTarget selects a native gate set (Table I technology).
type TranspileTarget = transpile.Target

// Transpilation targets.
const (
	TargetSuperconducting = transpile.Superconducting
	TargetIonTrap         = transpile.IonTrap
	TargetNeutralAtom     = transpile.NeutralAtom
)

// Transpile lowers a (mapped) circuit to the native gate set of a
// technology: ion traps get R-rotations + Mølmer–Sørensen XX ("one-XX and
// four-R" CNOTs, §III-A), neutral atoms rotations + CX/CZ.
func Transpile(c *Circuit, target TranspileTarget) (*Circuit, error) {
	return transpile.To(c, target)
}

// OrientResult summarises a CX-orientation pass.
type OrientResult = orient.Result

// Orient rewrites a mapped circuit for devices with directed coupling
// (reversed CXs become H-conjugated); lowerSwaps additionally expands
// SWAPs into CX triples.
func Orient(c *Circuit, dev *Device, lowerSwaps bool) (*Circuit, OrientResult, error) {
	return orient.Pass(c, dev, lowerSwaps)
}

// LoadCalibration reads a calibration snapshot from a JSON file.
func LoadCalibration(path string) (*Calibration, error) { return calib.Load(path) }

// SyntheticCalibration generates a deterministic synthetic calibration
// snapshot for a device, seeded per device name.
func SyntheticCalibration(dev *Device, seed int64) *Calibration { return calib.Synthetic(dev, seed) }

// NewCostModel blends a calibration snapshot into a fidelity-weighted
// routing metric for dev (edge weight 1 + lambda*(-log(1-err2)); lambda 0
// selects the calibrated-routing default, negative disables the error
// term). Pass it via Options.Cost or SabreOptions.Cost; with no cost model
// attached, mapping output is bit-identical to the duration-only objective.
func NewCostModel(snap *Calibration, dev *Device, lambda float64) (*CostModel, error) {
	return snap.CostModel(dev, lambda)
}

// EstimateSuccess returns the calibration-estimated success probability of a
// mapped, scheduled circuit: per-gate fidelities times per-qubit decoherence
// survival over the schedule.
func EstimateSuccess(snap *Calibration, s *Schedule, dev *Device) (float64, error) {
	return snap.Success(s, dev)
}

// Suite returns the 71-benchmark evaluation suite.
func Suite() []Benchmark { return workloads.Suite() }

// BenchmarkByName returns one suite entry by name.
func BenchmarkByName(name string) (Benchmark, error) { return workloads.ByName(name) }

// FamousSeven returns the seven algorithms of the Fig 9 fidelity
// experiment.
func FamousSeven() []Benchmark { return workloads.FamousSeven() }
