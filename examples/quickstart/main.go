// Quickstart: build a small circuit with the public API, map it onto the
// IBM Q20 Tokyo model with CODAR, and inspect the timed result.
package main

import (
	"fmt"
	"log"

	"codar"
)

func main() {
	// A 5-qubit GHZ-plus-phase circuit: the CX ladder forces routing on
	// any sparsely coupled device.
	c := codar.NewNamedCircuit("quickstart", 5)
	c.H(0)
	c.CX(0, 1)
	c.CX(0, 2)
	c.CX(0, 3)
	c.CX(0, 4)
	c.T(2)
	c.CX(3, 1)

	dev, err := codar.DeviceByName("tokyo")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("device:", dev)

	// The paper's protocol: both mappers start from the SABRE
	// reverse-traversal initial layout.
	initial, err := codar.SABREInitialLayout(c, dev, 1)
	if err != nil {
		log.Fatal(err)
	}

	res, err := codar.Remap(c, dev, initial, codar.Options{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("mapped %d gates with %d swaps, weighted depth %d cycles\n",
		res.Circuit.Len(), res.SwapCount, res.Makespan)
	fmt.Println("\ntimed schedule:")
	sched := res.Schedule() // each gate's start cycle and duration
	fmt.Print(sched)
	fmt.Println("\nper-qubit timeline:")
	fmt.Print(sched.Gantt(72))

	// Every mapping is independently checkable.
	if err := codar.Verify(c, res.Circuit, dev, res.InitialLayout, res.FinalLayout); err != nil {
		log.Fatal(err)
	}
	fmt.Println("verification: mapped circuit is equivalent to the input")

	// The mapped circuit round-trips through OpenQASM.
	fmt.Println("\nmapped OpenQASM:")
	fmt.Print(codar.WriteQASM(res.Circuit))
}
