// Package placement generates initial logical→physical layouts. The paper
// notes that "initial mapping has been proved to be significant for the
// qubit mapping problem" (§V-A) and adopts SABRE's reverse-traversal
// method for its evaluation; this package provides that plus the standard
// alternatives (trivial, seeded random, interaction-aware greedy), so the
// sensitivity can be measured (see the initial-mapping study in
// internal/experiments).
package placement

import (
	"fmt"
	"slices"
	"sort"

	"codar/internal/arch"
	"codar/internal/circuit"
	"codar/internal/sabre"
)

// Dense greedily places heavily interacting logical qubits on
// well-connected physical regions (the DenseLayout idea): logical qubits
// are placed in descending interaction weight, each at the free physical
// qubit minimising the weighted distance to its already-placed partners.
func Dense(c *circuit.Circuit, dev *arch.Device) (*arch.Layout, error) {
	n := c.NumQubits
	if n > dev.NumQubits {
		return nil, fmt.Errorf("placement: circuit needs %d qubits, device %s has %d", n, dev.Name, dev.NumQubits)
	}
	// Logical interaction weights.
	weight := make([][]int, n)
	for i := range weight {
		weight[i] = make([]int, n)
	}
	total := make([]int, n)
	for _, g := range c.Gates {
		if !g.Op.TwoQubit() {
			continue
		}
		a, b := g.Qubits[0], g.Qubits[1]
		weight[a][b]++
		weight[b][a]++
		total[a]++
		total[b]++
	}

	assignment := make([]int, n)
	for i := range assignment {
		assignment[i] = -1
	}
	usedPhys := make([]bool, dev.NumQubits)

	// Seed: the busiest logical qubit on the highest-degree physical qubit.
	first := 0
	for q := 1; q < n; q++ {
		if total[q] > total[first] {
			first = q
		}
	}
	bestPhys := 0
	for p := 1; p < dev.NumQubits; p++ {
		if dev.Degree(p) > dev.Degree(bestPhys) {
			bestPhys = p
		}
	}
	assignment[first] = bestPhys
	usedPhys[bestPhys] = true

	// Remaining logical qubits in descending attachment to the placed set.
	for placed := 1; placed < n; placed++ {
		next, nextScore := -1, -1
		for q := 0; q < n; q++ {
			if assignment[q] >= 0 {
				continue
			}
			score := 0
			for r := 0; r < n; r++ {
				if assignment[r] >= 0 {
					score += weight[q][r]
				}
			}
			//

			if score > nextScore || (score == nextScore && (next < 0 || total[q] > total[next])) {
				next, nextScore = q, score
			}
		}
		// Best free physical location: minimise weighted distance to the
		// placed partners (falling back to closeness to the seed for
		// isolated qubits).
		bestP, bestCost := -1, 0
		for p := 0; p < dev.NumQubits; p++ {
			if usedPhys[p] {
				continue
			}
			cost := 0
			attached := false
			for r := 0; r < n; r++ {
				if assignment[r] >= 0 && weight[next][r] > 0 {
					cost += weight[next][r] * dev.Distance(p, assignment[r])
					attached = true
				}
			}
			if !attached {
				cost = dev.Distance(p, bestPhys)
			}
			if bestP < 0 || cost < bestCost {
				bestP, bestCost = p, cost
			}
		}
		assignment[next] = bestP
		usedPhys[bestP] = true
	}
	return arch.NewLayout(assignment, dev.NumQubits)
}

// Method names a placement strategy for reports.
type Method string

// The available strategies.
const (
	MethodTrivial      Method = "trivial"
	MethodRandom       Method = "random"
	MethodDense        Method = "dense"
	MethodSabreReverse Method = "sabre-reverse"
)

// Methods lists all strategies in report order.
func Methods() []Method {
	return []Method{MethodTrivial, MethodRandom, MethodDense, MethodSabreReverse}
}

// ParseMethod validates a placement name against Methods.
func ParseMethod(s string) (Method, error) {
	known := Methods()
	if m := Method(s); slices.Contains(known, m) {
		return m, nil
	}
	names := make([]string, len(known))
	for i, k := range known {
		names[i] = string(k)
	}
	sort.Strings(names)
	return "", fmt.Errorf("placement: unknown method %q (known: %v)", s, names)
}

// Seeded reports whether the strategy consumes the seed. Seed-insensitive
// strategies (trivial, dense) produce identical layouts for every seed,
// which the portfolio exploits to skip duplicate grid points.
func (m Method) Seeded() bool {
	return m == MethodRandom || m == MethodSabreReverse
}

// Generate places the assembled circuit by the named method: trivial maps
// logical qubit i to physical qubit i, random picks a seeded random subset
// of physical qubits, dense is Dense, and sabre-reverse is SABRE's
// reverse traversal (sabre.InitialLayoutAssembled, two full SABRE passes
// on one mapper over the assembly's SoA). Only sabre-reverse runs under
// opts: Cost places under a calibration-weighted metric (the
// placement-heavy win in DESIGN.md §8) and Ctx aborts its passes.
func Generate(m Method, a *circuit.Assembly, dev *arch.Device, seed int64, opts sabre.Options) (*arch.Layout, error) {
	n := a.Circ.NumQubits
	if n > dev.NumQubits {
		return nil, fmt.Errorf("placement: circuit needs %d qubits, device %s has %d", n, dev.Name, dev.NumQubits)
	}
	switch m {
	case MethodTrivial:
		return arch.NewTrivialLayout(n, dev.NumQubits), nil
	case MethodRandom:
		return arch.RandomLayout(seed, n, dev.NumQubits)
	case MethodDense:
		return Dense(a.Circ, dev)
	case MethodSabreReverse:
		return sabre.InitialLayoutAssembled(a, dev, seed, opts)
	default:
		_, err := ParseMethod(string(m))
		return nil, err
	}
}
