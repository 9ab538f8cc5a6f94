// Tracedemo reconstructs the paper's Example 3/4 configuration (Figure
// 4-2) through the public API, simulates it under the shared-memory
// protocol, and prints the priority tables (Tables 4-1, 4-2) and the
// Figure 5-1 style execution chart.
//
//	go run ./examples/tracedemo
package main

import (
	"fmt"
	"log"

	"mpcp"
)

func main() {
	// Priorities follow the paper's notation: P1 > P2 > ... > P7,
	// realized as 7..1 (larger number = higher priority).
	P := func(i int) int { return 8 - i }

	b := mpcp.NewBuilder(3)
	s1 := b.Semaphore("S1")   // local to P0
	s2 := b.Semaphore("S2")   // local to P2
	s3 := b.Semaphore("S3")   // local to P2
	sg1 := b.Semaphore("SG1") // global
	sg2 := b.Semaphore("SG2") // global

	b.Task("tau1", mpcp.TaskSpec{Proc: 0, Period: 50, Offset: 2, Priority: P(1)},
		mpcp.Compute(1),
		mpcp.Lock(s1), mpcp.Compute(2), mpcp.Unlock(s1),
		mpcp.Compute(1),
		mpcp.Lock(sg1), mpcp.Compute(2), mpcp.Unlock(sg1),
		mpcp.Compute(1),
	)
	b.Task("tau2", mpcp.TaskSpec{Proc: 0, Period: 60, Priority: P(2)},
		mpcp.Compute(1),
		mpcp.Lock(sg2), mpcp.Compute(2), mpcp.Unlock(sg2),
		mpcp.Compute(1),
		mpcp.Lock(s1), mpcp.Compute(2), mpcp.Unlock(s1),
		mpcp.Compute(1),
	)
	b.Task("tau3", mpcp.TaskSpec{Proc: 1, Period: 70, Offset: 3, Priority: P(3)},
		mpcp.Compute(1),
		mpcp.Lock(sg1), mpcp.Compute(3), mpcp.Unlock(sg1),
		mpcp.Compute(1),
	)
	b.Task("tau4", mpcp.TaskSpec{Proc: 1, Period: 80, Priority: P(4)},
		mpcp.Compute(1),
		mpcp.Lock(sg2), mpcp.Compute(3), mpcp.Unlock(sg2),
		mpcp.Compute(1),
	)
	b.Task("tau5", mpcp.TaskSpec{Proc: 2, Period: 90, Offset: 4, Priority: P(5)},
		mpcp.Compute(1),
		mpcp.Lock(s2), mpcp.Compute(2), mpcp.Unlock(s2),
		mpcp.Compute(1),
		mpcp.Lock(sg1), mpcp.Compute(2), mpcp.Unlock(sg1),
		mpcp.Compute(1),
	)
	b.Task("tau6", mpcp.TaskSpec{Proc: 2, Period: 100, Offset: 2, Priority: P(6)},
		mpcp.Compute(1),
		mpcp.Lock(s3), mpcp.Compute(2), mpcp.Unlock(s3),
		mpcp.Compute(1),
		mpcp.Lock(sg2), mpcp.Compute(2), mpcp.Unlock(sg2),
		mpcp.Compute(1),
	)
	b.Task("tau7", mpcp.TaskSpec{Proc: 2, Period: 110, Priority: P(7)},
		mpcp.Compute(1),
		mpcp.Lock(s2), mpcp.Compute(1),
		mpcp.Lock(s3), mpcp.Compute(1), mpcp.Unlock(s3),
		mpcp.Compute(1), mpcp.Unlock(s2),
		mpcp.Compute(1),
	)

	sys, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	// Table 4-1 / 4-2: the priority structure of Section 4.
	tbl := mpcp.Ceilings(sys)
	fmt.Printf("P_H = %d, P_G = %d\n\n", tbl.PH, tbl.PG)
	fmt.Println("Table 4-1 — priority ceilings:")
	for _, sem := range sys.Sems {
		if sem.Global {
			fmt.Printf("  %-4s global ceiling = %d\n", sem.Name, tbl.GlobalCeiling(sem.ID))
		} else {
			c, _ := tbl.LocalCeiling(sem.ID)
			fmt.Printf("  %-4s local  ceiling = %d\n", sem.Name, c)
		}
	}
	fmt.Println("\nTable 4-2 — gcs execution priorities (P_G + P_h):")
	for _, t := range sys.Tasks {
		for _, cs := range sys.GlobalSections(t.ID) {
			fmt.Printf("  %-5s on %-4s -> %d\n", t.Name, sys.SemByID(cs.Sem).Name, tbl.GcsPriority(t.ID, cs.Sem))
		}
	}

	// Figure 5-1: the event trace.
	p, err := mpcp.NewProtocol("mpcp", mpcp.ProtocolOptions{})
	if err != nil {
		log.Fatal(err)
	}
	tr := mpcp.NewTrace()
	res, err := mpcp.Simulate(sys, p, mpcp.WithHorizon(40), mpcp.WithTrace(tr))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nFigure 5-1 — execution chart (G = global cs, L = local cs):")
	fmt.Print(tr.Gantt(sys, 0, 24))

	fmt.Println("\nevent log (first 25 events):")
	for i, e := range tr.Events {
		if i >= 25 {
			break
		}
		fmt.Println(" ", e)
	}

	if res.AnyMiss {
		log.Fatal("unexpected deadline miss")
	}
	if vs := tr.CheckGcsPreemption(sys.NumProcs); len(vs) > 0 {
		log.Fatalf("Theorem 2 violated: %v", vs)
	}
	fmt.Println("\nall deadlines met; no gcs preempted by non-critical code (Theorem 2)")
}
