package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"

	"codar/internal/arch"
	"codar/internal/circuit"
	"codar/internal/core"
	"codar/internal/qasm"
	"codar/internal/sabre"
	"codar/internal/schedule"
)

// entryPoint is one mapper entry point reduced to the inputs the shared
// input check (arch.StartLayout) and the context check judge.
type entryPoint struct {
	name string
	// layout is false for entry points that take no initial layout.
	layout bool
	run    func(c *circuit.Circuit, dev *arch.Device, l *arch.Layout, cost *arch.CostModel, ctx context.Context) error
}

var entryPoints = []entryPoint{
	{"core.RemapAssembled", true, func(c *circuit.Circuit, dev *arch.Device, l *arch.Layout, cost *arch.CostModel, ctx context.Context) error {
		_, err := core.RemapAssembled(circuit.Assemble(c), dev, l, core.Options{Cost: cost, Ctx: ctx})
		return err
	}},
	{"core.RemapStream", true, func(c *circuit.Circuit, dev *arch.Device, l *arch.Layout, cost *arch.CostModel, ctx context.Context) error {
		_, err := core.RemapStream(circuit.NewSliceSource(c), dev, l, core.Options{Cost: cost, Ctx: ctx}, &schedule.Collector{})
		return err
	}},
	{"sabre.RemapAssembled", true, func(c *circuit.Circuit, dev *arch.Device, l *arch.Layout, cost *arch.CostModel, ctx context.Context) error {
		_, err := sabre.RemapAssembled(circuit.Assemble(c), dev, l, sabre.Options{Cost: cost, Ctx: ctx})
		return err
	}},
	{"sabre.RemapStream", true, func(c *circuit.Circuit, dev *arch.Device, l *arch.Layout, cost *arch.CostModel, ctx context.Context) error {
		_, err := sabre.RemapStream(circuit.NewSliceSource(c), dev, l, sabre.Options{Cost: cost, Ctx: ctx}, &schedule.Collector{})
		return err
	}},
	{"sabre.InitialLayoutAssembled", false, func(c *circuit.Circuit, dev *arch.Device, _ *arch.Layout, cost *arch.CostModel, ctx context.Context) error {
		_, err := sabre.InitialLayoutAssembled(circuit.Assemble(c), dev, 1, sabre.Options{Cost: cost, Ctx: ctx})
		return err
	}},
}

// TestEntryPointsRejectBadInput runs one bad-input table over every mapper
// entry point, batch and stream: each row must fail, and a dead context
// must fail with the shared cancellation sentinel.
func TestEntryPointsRejectBadInput(t *testing.T) {
	linear3 := arch.Linear(3)
	split, err := arch.NewDevice("split", 4, [][2]int{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := arch.NewCostModel(arch.Linear(5), make([]float64, len(arch.Linear(5).Edges)))
	if err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()

	rows := []struct {
		name   string
		c      *circuit.Circuit
		dev    *arch.Device
		layout *arch.Layout
		cost   *arch.CostModel
		ctx    context.Context
		// needsLayout marks rows only entry points taking a layout can see.
		needsLayout bool
		// msg is a fragment of the expected error text; want, when set, is
		// the sentinel the error must match.
		msg  string
		want error
	}{
		{name: "too many qubits", c: circuit.New(5).CX(0, 4), dev: linear3, msg: "needs 5 qubits"},
		{name: "disconnected device", c: circuit.New(2).CX(0, 1), dev: split, msg: "disconnected"},
		{name: "mis-shaped layout", c: circuit.New(3).H(0), dev: linear3,
			layout: arch.NewTrivialLayout(2, 3), needsLayout: true, msg: "layout shape"},
		{name: "foreign cost model", c: circuit.New(4).CX(0, 3), dev: arch.Ring(5), cost: foreign, msg: "cost model built for"},
		{name: "unlowered gate", c: circuit.New(3).CCX(0, 1, 2), dev: linear3, msg: "compound gate"},
		{name: "pre-canceled context", c: circuit.New(3).CX(0, 2).H(1), dev: linear3,
			ctx: canceled, want: core.ErrCanceled},
	}
	for _, e := range entryPoints {
		for _, row := range rows {
			if row.needsLayout && !e.layout {
				continue
			}
			err := e.run(row.c, row.dev, row.layout, row.cost, row.ctx)
			if err == nil {
				t.Errorf("%s: %s accepted", e.name, row.name)
				continue
			}
			if !strings.Contains(err.Error(), row.msg) || row.want != nil && !errors.Is(err, row.want) {
				t.Errorf("%s: %s: err = %v, want %q / %v", e.name, row.name, err, row.msg, row.want)
			}
		}
	}
}

// TestMappersKeepClassicalRegister: a classical bit no measure writes is
// still part of the program's register, so both mappers, batch and stream,
// declare the input's full classical-bit count.
func TestMappersKeepClassicalRegister(t *testing.T) {
	c, err := qasm.Parse("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\ncreg c[5];\n" +
		"cx q[0],q[2];\nh q[1];\nmeasure q[0] -> c[0];\n")
	if err != nil {
		t.Fatal(err)
	}
	dev := arch.IBMQ20Tokyo()
	const want = 5

	cres, err := core.Remap(c, dev, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sres, err := sabre.Remap(c, dev, nil, sabre.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, out := range map[string]*circuit.Circuit{"core.Remap": cres.Circuit, "sabre.Remap": sres.Circuit} {
		if out.NumClbits != want || !strings.Contains(qasm.Write(out), "creg c[5];") {
			t.Errorf("%s: output declares %d classical bits, want %d", name, out.NumClbits, want)
		}
	}

	cst, err := core.RemapStream(circuit.NewSliceSource(c), dev, nil, core.Options{}, &schedule.Collector{})
	if err != nil {
		t.Fatal(err)
	}
	sst, err := sabre.RemapStream(circuit.NewSliceSource(c), dev, nil, sabre.Options{}, &schedule.Collector{})
	if err != nil {
		t.Fatal(err)
	}
	if cst.NumClbits != want || sst.NumClbits != want {
		t.Errorf("streams declare %d (core) and %d (sabre) classical bits, want %d", cst.NumClbits, sst.NumClbits, want)
	}
}
