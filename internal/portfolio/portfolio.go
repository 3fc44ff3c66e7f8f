// Package portfolio implements objective-driven multi-start mapping: run K
// candidate pipelines — seeds × placement methods × mapping algorithms —
// concurrently over a bounded worker pool, score every completed schedule
// with a pluggable objective, and return the winner plus a per-candidate
// report. Every candidate is placed and routed by the one compile pipeline
// (compile.Place, compile.Route) and scored on compile.Result's metrics.
//
// The paper adopts a single initial-mapping heuristic (SABRE's reverse
// traversal, §V-A) because "initial mapping has been proved to be
// significant for the qubit mapping problem"; Niu et al.'s hardware-aware
// heuristic shows that searching over multiple starts and selecting by an
// objective beats any single run. This package is that search:
//
//   - Candidates are enumerated in a fixed order (seed-major, then
//     placement method, then algorithm), and selection is a total order —
//     objective score, then weighted depth, then swap count, then candidate
//     index — so the same inputs always pick the same winner regardless of
//     goroutine completion order.
//   - Early abandon (Spec.EarlyAbandon) threads a shared arch.DepthBound
//     through the mappers: each completed candidate publishes its weighted
//     depth, and an in-flight candidate whose in-progress makespan lower
//     bound already exceeds the incumbent stops routing instead of
//     finishing a losing run. Abandon only triggers on a *strictly* worse
//     lower bound under the min-depth objective, so it can never change the
//     winner — only which losers finish (DESIGN.md §9).
//
// Objectives: ObjectiveMinDepth (weighted depth, the paper's figure of
// merit), ObjectiveMinSwaps, and ObjectiveMaxESP (calibration-estimated
// success probability; requires Spec.Snapshot).
package portfolio

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"codar/internal/arch"
	"codar/internal/calib"
	"codar/internal/circuit"
	"codar/internal/compile"
	"codar/internal/core"
	"codar/internal/interrupt"
	"codar/internal/placement"
	"codar/internal/pool"
)

// ErrCanceled and ErrDeadline are returned by Run when Spec.Ctx fires: the
// whole portfolio request was abandoned — queued candidates are never
// dispatched and in-flight candidates abort at their mappers' amortized
// cancellation cadence. They are the shared pipeline sentinels — errors.Is
// also matches context.Canceled / context.DeadlineExceeded.
var (
	ErrCanceled = interrupt.ErrCanceled
	ErrDeadline = interrupt.ErrDeadline
)

// Objective names a candidate-scoring rule. Scores are minimised; see
// Objectives for the known set.
type Objective string

// The available objectives.
const (
	// ObjectiveMinDepth minimises the weighted depth (ASAP makespan under
	// the device durations) of the mapped circuit — the paper's figure of
	// merit, and the only objective eligible for early abandon.
	ObjectiveMinDepth Objective = "min-depth"
	// ObjectiveMinSwaps minimises the number of inserted SWAPs.
	ObjectiveMinSwaps Objective = "min-swaps"
	// ObjectiveMaxESP maximises the calibration-estimated success
	// probability of the mapped schedule. Requires Spec.Snapshot.
	ObjectiveMaxESP Objective = "max-esp"
)

// Objectives lists the known objectives in report order.
func Objectives() []Objective {
	return []Objective{ObjectiveMinDepth, ObjectiveMinSwaps, ObjectiveMaxESP}
}

// ParseObjective validates an objective name.
func ParseObjective(s string) (Objective, error) {
	for _, o := range Objectives() {
		if string(o) == s {
			return o, nil
		}
	}
	return "", fmt.Errorf("portfolio: unknown objective %q (want min-depth, min-swaps or max-esp)", s)
}

// Spec configures a portfolio run. The zero value selects the defaults:
// seeds {1, 2}, every placement method, both algorithms, min-depth, no
// early abandon.
type Spec struct {
	// Ctx, when non-nil, makes the whole portfolio run cancelable:
	// abandoning the request cancels every in-flight candidate (the
	// mappers poll it at their amortized cadence), stops dispatching
	// queued ones, and Run returns ErrCanceled / ErrDeadline instead of a
	// result. nil leaves the run — and its output bytes — untouched.
	Ctx context.Context
	// Seeds drive the seeded placement methods (random, sabre-reverse).
	// Seed-insensitive methods still enumerate once per seed so the
	// candidate grid stays rectangular and the report exhaustive, but
	// their duplicate grid points are computed once and copied.
	// Empty selects DefaultSeeds.
	Seeds []int64
	// Placements are the initial-layout strategies to try. Empty selects
	// placement.Methods() (all four).
	Placements []placement.Method
	// Algorithms are the routers to try. Empty selects both, CODAR first.
	Algorithms []compile.Algorithm
	// Objective scores completed candidates. Empty selects min-depth.
	Objective Objective
	// Workers bounds the candidate fan-out; <= 0 selects GOMAXPROCS.
	Workers int
	// EarlyAbandon enables the shared depth bound. Only effective under
	// ObjectiveMinDepth: other objectives can prefer deeper schedules, so a
	// depth cut could change their winner and is ignored.
	EarlyAbandon bool
	// Snapshot, when non-nil, attaches a calibration snapshot: every
	// candidate's report gains an ESP estimate, and ObjectiveMaxESP becomes
	// available. It must validate against the target device.
	Snapshot *calib.Snapshot
	// Cost, when non-nil, places and routes every candidate under a
	// calibration-weighted metric, as compile.Spec.Cost does, so the grid
	// point (seed 1, sabre-reverse, codar) is the calibrated single-shot
	// pipeline.
	Cost *arch.CostModel
	// Codar is CODAR's own tuning for every codar candidate. Its Ctx, Cost
	// and DepthBound come from the Spec (the bound from EarlyAbandon), as
	// in compile.Spec, so they must be left unset here: Run rejects a Spec
	// that sets one.
	Codar core.Options
}

// DefaultSeeds is the seed set a zero Spec enumerates.
var DefaultSeeds = []int64{1, 2}

// Normalized returns a copy of the spec with defaults applied — the exact
// grid axes Run will enumerate (useful for reports).
func (s Spec) Normalized() Spec {
	if len(s.Seeds) == 0 {
		s.Seeds = DefaultSeeds
	}
	if len(s.Placements) == 0 {
		s.Placements = placement.Methods()
	}
	if len(s.Algorithms) == 0 {
		s.Algorithms = []compile.Algorithm{compile.Codar, compile.Sabre}
	}
	if s.Objective == "" {
		s.Objective = ObjectiveMinDepth
	}
	return s
}

// Candidate identifies one point of the portfolio grid.
type Candidate struct {
	// Index is the position in the fixed enumeration order (seed-major,
	// then placement, then algorithm) — the final tie-break key.
	Index     int               `json:"index"`
	Seed      int64             `json:"seed"`
	Placement placement.Method  `json:"placement"`
	Algorithm compile.Algorithm `json:"algorithm"`
}

// Report is the outcome of one candidate.
type Report struct {
	Candidate
	// Depth is the weighted depth (ASAP makespan) of the candidate's
	// output; Swaps its inserted-SWAP count. Zero when the candidate did
	// not complete.
	Depth int `json:"depth,omitempty"`
	Swaps int `json:"swaps,omitempty"`
	// ESP is the calibration-estimated success probability (present only
	// when the Spec carried a snapshot and the candidate completed).
	ESP float64 `json:"esp,omitempty"`
	// Score is the objective value (lower wins; max-esp negates).
	Score float64 `json:"score,omitempty"`
	// Abandoned marks a candidate cut by the early-abandon bound. Which
	// losers are abandoned depends on goroutine timing; the winner does
	// not (see the package comment).
	Abandoned bool `json:"abandoned,omitempty"`
	// Err records a candidate that failed outright (e.g. a placement
	// method rejecting the circuit).
	Err string `json:"error,omitempty"`
}

// Result is a portfolio run outcome.
type Result struct {
	// Objective the candidates were scored with.
	Objective Objective
	// Winner is the selected candidate's mapping and metrics; its ESP is
	// set when the Spec carried a snapshot.
	Winner *compile.Result
	// WinnerIndex is the winner's Candidate.Index.
	WinnerIndex int
	// Candidates reports every grid point in enumeration order.
	Candidates []Report
	// Completed and Abandoned count candidate outcomes.
	Completed int
	Abandoned int
}

// WinnerReport returns the winner's report row.
func (r *Result) WinnerReport() Report { return r.Candidates[r.WinnerIndex] }

// Enumerate lists the candidate grid of a spec in the fixed order the
// selection tie-breaks on: seed-major, then placement method, then
// algorithm.
func Enumerate(spec Spec) []Candidate {
	spec = spec.Normalized()
	out := make([]Candidate, 0, len(spec.Seeds)*len(spec.Placements)*len(spec.Algorithms))
	for _, seed := range spec.Seeds {
		for _, m := range spec.Placements {
			for _, a := range spec.Algorithms {
				out = append(out, Candidate{Index: len(out), Seed: seed, Placement: m, Algorithm: a})
			}
		}
	}
	return out
}

// outcome is the internal per-candidate result: the report row plus (for
// completed candidates) the full output, retained only while it is the
// running best.
type outcome struct {
	rep Report
	res *compile.Result
}

// better reports whether a beats b under the total selection order:
// objective score, then depth, then swaps, then candidate index. Both must
// be completed candidates.
func better(a, b *outcome) bool {
	if a.rep.Score != b.rep.Score {
		return a.rep.Score < b.rep.Score
	}
	if a.rep.Depth != b.rep.Depth {
		return a.rep.Depth < b.rep.Depth
	}
	if a.rep.Swaps != b.rep.Swaps {
		return a.rep.Swaps < b.rep.Swaps
	}
	return a.rep.Index < b.rep.Index
}

// Run executes the portfolio search for circuit c on dev. The circuit must
// be lowered (circuit.Decompose) and fit the device; requirements mirror
// compile.Run. At least one candidate must complete, or the first failure
// is returned.
//
// All candidates share one circuit.Assembly, and the initial layouts are
// computed once per distinct (placement, seed) pair and shared across
// algorithms — a sabre-reverse placement is two full SABRE passes, so
// scoring both routers from it for the price of one halves the grid's
// dominant cost. Layouts are read-only to the routers (each clones before
// mutating).
func Run(c *circuit.Circuit, dev *arch.Device, spec Spec) (*Result, error) {
	spec = spec.Normalized()
	if _, err := ParseObjective(string(spec.Objective)); err != nil {
		return nil, err
	}
	switch {
	case spec.Codar.Ctx != nil:
		return nil, errors.New("portfolio: Spec.Codar.Ctx is set; set Spec.Ctx instead")
	case spec.Codar.Cost != nil:
		return nil, errors.New("portfolio: Spec.Codar.Cost is set; set Spec.Cost instead")
	case spec.Codar.DepthBound != nil:
		return nil, errors.New("portfolio: Spec.Codar.DepthBound is set; set Spec.EarlyAbandon instead")
	}
	for _, m := range spec.Placements {
		if _, err := placement.ParseMethod(string(m)); err != nil {
			return nil, err
		}
	}
	for _, a := range spec.Algorithms {
		if _, err := compile.ParseAlgorithm(string(a)); err != nil {
			return nil, err
		}
	}
	if spec.Objective == ObjectiveMaxESP && spec.Snapshot == nil {
		return nil, fmt.Errorf("portfolio: objective max-esp needs a calibration snapshot")
	}
	if spec.Snapshot != nil {
		if err := spec.Snapshot.Validate(dev); err != nil {
			return nil, err
		}
	}
	cands := Enumerate(spec)
	if len(cands) == 0 {
		return nil, fmt.Errorf("portfolio: empty candidate grid")
	}
	if err := interrupt.Classify(spec.Ctx); err != nil {
		return nil, fmt.Errorf("portfolio: %w", err)
	}

	// base is what every candidate's placement and routing share. The
	// depth bound is sound only under min-depth: other objectives can
	// select a deeper schedule, so a depth cut could kill their winner.
	base := compile.Spec{Ctx: spec.Ctx, Cost: spec.Cost, Codar: spec.Codar, Snapshot: spec.Snapshot}
	if spec.EarlyAbandon && spec.Objective == ObjectiveMinDepth {
		base.DepthBound = &arch.DepthBound{}
	}

	// Seed-insensitive placements (trivial, dense) yield identical layouts
	// for every seed, so only their first grid point computes; the other
	// seeds' rows are copies. primary[i] is the candidate whose outcome row
	// i shares (itself for real work). Duplicates can never become the
	// winner over their primary — identical stats lose the index tie-break
	// — so they are excluded from best-tracking and determinism holds.
	primary := make([]int, len(cands))
	firstOf := make(map[[2]string]int)
	work := make([]int, 0, len(cands))
	for i, cand := range cands {
		primary[i] = i
		if !cand.Placement.Seeded() {
			key := [2]string{string(cand.Placement), string(cand.Algorithm)}
			if j, ok := firstOf[key]; ok {
				primary[i] = j
				continue
			}
			firstOf[key] = i
		}
		work = append(work, i)
	}

	// Stage 1: compute each distinct (placement, seed) initial layout once.
	// The grid pairs every layout with both algorithms; without sharing,
	// the expensive sabre-reverse placement would run once per algorithm.
	// Seed-insensitive methods collapse further (their work entries above
	// already dedupe per algorithm, but both algorithms' entries still
	// name the same layout). Placement runs under the same Cost as routing,
	// as in compile.Run.
	type placed struct {
		layout *arch.Layout
		err    error
	}
	a := circuit.Assemble(c)
	layIdx := make([]int, len(work))
	layKeys := make(map[[2]string]int)
	var layJobs []Candidate
	for k, i := range work {
		cand := cands[i]
		key := [2]string{string(cand.Placement), ""}
		if cand.Placement.Seeded() {
			key[1] = fmt.Sprint(cand.Seed)
		}
		j, ok := layKeys[key]
		if !ok {
			j = len(layJobs)
			layKeys[key] = j
			layJobs = append(layJobs, cand)
		}
		layIdx[k] = j
	}
	layouts := make([]placed, len(layJobs))
	playErr := pool.RunCtx(spec.Ctx, len(layJobs), spec.Workers, func(j int) {
		defer func() {
			if r := recover(); r != nil {
				layouts[j] = placed{err: fmt.Errorf("candidate panicked: %v", r)}
			}
		}()
		ps := base
		ps.Placement, ps.Seed = layJobs[j].Placement, layJobs[j].Seed
		l, err := compile.Place(a, dev, ps)
		layouts[j] = placed{layout: l, err: err}
	})
	if playErr != nil {
		return nil, fmt.Errorf("portfolio: %w", playErr)
	}

	res := &Result{Objective: spec.Objective, Candidates: make([]Report, len(cands)), WinnerIndex: -1}
	var (
		mu   sync.Mutex
		best *outcome
	)
	runErr := pool.RunCtx(spec.Ctx, len(work), spec.Workers, func(k int) {
		i := work[k]
		o := runCandidate(a, dev, base, spec.Objective, cands[i], layouts[layIdx[k]].layout, layouts[layIdx[k]].err)
		mu.Lock()
		defer mu.Unlock()
		res.Candidates[i] = o.rep
		switch {
		case o.rep.Err != "":
		case o.rep.Abandoned:
		default:
			base.DepthBound.Tighten(o.rep.Depth)
			// Keep only the running best's full output: the selection
			// order is total (index last), so min over any arrival order
			// is the same winner a sequential scan would pick.
			if best == nil || better(o, best) {
				best = o
			} else {
				o.res = nil
			}
		}
	})
	// A fired context outranks every per-candidate outcome: some candidates
	// were never dispatched, so any "winner" would depend on timing. All
	// in-flight mappers have aborted and all pool workers exited by now.
	if runErr != nil {
		return nil, fmt.Errorf("portfolio: %w", runErr)
	}
	// Fill the duplicate rows from their primaries and tally outcomes over
	// the full grid, so the report stays rectangular and exhaustive.
	for i := range cands {
		if primary[i] != i {
			rep := res.Candidates[primary[i]]
			rep.Candidate = cands[i]
			res.Candidates[i] = rep
		}
		switch rep := res.Candidates[i]; {
		case rep.Err != "":
		case rep.Abandoned:
			res.Abandoned++
		default:
			res.Completed++
		}
	}
	if best == nil {
		for _, rep := range res.Candidates {
			if rep.Err != "" {
				return nil, fmt.Errorf("portfolio: no candidate completed; first failure (%s/%s seed %d): %s",
					rep.Placement, rep.Algorithm, rep.Seed, rep.Err)
			}
		}
		return nil, fmt.Errorf("portfolio: no candidate completed")
	}
	res.Winner = best.res
	res.WinnerIndex = best.rep.Index
	return res, nil
}

// runCandidate routes one grid point from its shared initial layout
// through compile.Route under base (which carries the shared bound) and
// scores its metrics. Placement happened in the caller's stage-1 pool
// (initial/layErr); its errors surface here. A report's error is the
// failing stage's own error text, without compile.Error's stage prefix. A
// panic in any stage becomes the candidate's error instead of killing the
// host process with pool workers mid-flight (the experiments.RunBatch
// contract).
func runCandidate(a *circuit.Assembly, dev *arch.Device, base compile.Spec, obj Objective, cand Candidate, initial *arch.Layout, layErr error) (o *outcome) {
	o = &outcome{rep: Report{Candidate: cand}}
	defer func() {
		if r := recover(); r != nil {
			o.res = nil
			o.rep.Abandoned = false
			o.rep.Err = fmt.Sprintf("candidate panicked: %v", r)
		}
	}()
	err := layErr
	if err == nil {
		base.Algorithm = cand.Algorithm
		o.res, err = compile.Route(a, dev, initial, base)
	}
	var ce *compile.Error
	switch {
	case errors.Is(err, arch.ErrDepthBound):
		o.rep.Abandoned = true
		return o
	case errors.As(err, &ce):
		o.rep.Err = ce.Err.Error()
		return o
	case err != nil:
		o.rep.Err = err.Error()
		return o
	}
	o.rep.Depth, o.rep.Swaps = o.res.WeightedDepth, o.res.Swaps
	if o.res.ESP != nil {
		o.rep.ESP = *o.res.ESP
	}
	switch obj {
	case ObjectiveMinDepth:
		o.rep.Score = float64(o.rep.Depth)
	case ObjectiveMinSwaps:
		o.rep.Score = float64(o.rep.Swaps)
	case ObjectiveMaxESP:
		o.rep.Score = -o.rep.ESP
	}
	return o
}
