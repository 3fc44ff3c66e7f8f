package experiments

import (
	"fmt"
	"io"

	"codar/internal/arch"
	"codar/internal/compile"
	"codar/internal/core"
	"codar/internal/metrics"
	"codar/internal/placement"
	"codar/internal/workloads"
)

// InitialMappingRow is one benchmark of the initial-mapping sensitivity
// study: CODAR's weighted depth from each placement strategy. The paper
// adopts SABRE's reverse-traversal mapping because "initial mapping has
// been proved to be significant" (§V-A); this study quantifies that on
// our suite.
type InitialMappingRow struct {
	Benchmark string
	// WD maps placement method -> CODAR weighted depth.
	WD map[placement.Method]int
}

// initialStudyBenchmarks is the representative subset used by the study.
var initialStudyBenchmarks = []string{
	"qft_10", "qft_16", "rand_10_g300", "rand_16_g1000",
	"revnet_12_s1", "adder_6", "qv_12_d12", "wstate_12",
}

// RunInitialMappingStudy maps each benchmark with CODAR starting from
// every placement strategy and records the weighted depths.
func RunInitialMappingStudy(dev *arch.Device, opts core.Options) ([]InitialMappingRow, error) {
	var rows []InitialMappingRow
	for _, name := range initialStudyBenchmarks {
		b, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		c := b.Circuit()
		row := InitialMappingRow{Benchmark: name, WD: make(map[placement.Method]int)}
		for _, m := range placement.Methods() {
			spec := paperSpec(opts, false)
			spec.Placement = m
			res, err := compile.Run(c, dev, spec)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s/%s: %w", name, m, err)
			}
			row.WD[m] = res.WeightedDepth
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// WriteInitialMappingStudy renders the study with per-method means
// normalised to the sabre-reverse baseline.
func WriteInitialMappingStudy(w io.Writer, dev *arch.Device, rows []InitialMappingRow) error {
	fmt.Fprintf(w, "initial-mapping sensitivity (CODAR weighted depth) on %s\n", dev.Name)
	methods := placement.Methods()
	headers := []string{"benchmark"}
	for _, m := range methods {
		headers = append(headers, string(m))
	}
	t := metrics.NewTable(headers...)
	ratios := make(map[placement.Method][]float64)
	for _, r := range rows {
		cells := []interface{}{r.Benchmark}
		base := float64(r.WD[placement.MethodSabreReverse])
		for _, m := range methods {
			cells = append(cells, r.WD[m])
			ratios[m] = append(ratios[m], float64(r.WD[m])/base)
		}
		t.AddRow(cells...)
	}
	if err := t.Render(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nmean weighted depth vs sabre-reverse baseline:\n")
	for _, m := range methods {
		fmt.Fprintf(w, "  %-14s %.3fx\n", m, metrics.Mean(ratios[m]))
	}
	return nil
}
