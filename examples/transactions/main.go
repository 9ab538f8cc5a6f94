// Transactions: the Section 5.1 remark about nested global critical
// sections, played out on a small "database" — transactions that need two
// objects at once. Two designs are compared through the public API:
//
//  1. Nested locks per object, in a fixed partial order (deadlock-free by
//     discipline, but outside the paper's analysis, and blocking chains
//     span processors transitively).
//
//  2. One coarser lock subsuming both objects ("locking a larger section
//     of the database"), which restores the non-nested analysis at the
//     cost of concurrency.
//
//     go run ./examples/transactions
package main

import (
	"fmt"
	"log"

	"mpcp"
)

type design struct {
	name   string
	sys    *mpcp.System
	proto  string
	nested bool
}

func buildNested() (*mpcp.System, error) {
	b := mpcp.NewBuilder(3).AllowNestedGlobal()
	accounts := b.Semaphore("accounts")
	orders := b.Semaphore("orders")
	audit := b.Semaphore("audit")

	// Every transaction locks in the global order accounts < orders < audit.
	b.Task("billing", mpcp.TaskSpec{Proc: 0, Period: 100, Offset: 2},
		mpcp.Compute(2),
		mpcp.Lock(accounts), mpcp.Compute(1),
		mpcp.Lock(orders), mpcp.Compute(2), mpcp.Unlock(orders),
		mpcp.Compute(1), mpcp.Unlock(accounts),
		mpcp.Compute(2),
	)
	b.Task("shipping", mpcp.TaskSpec{Proc: 1, Period: 140, Offset: 1},
		mpcp.Compute(2),
		mpcp.Lock(orders), mpcp.Compute(1),
		mpcp.Lock(audit), mpcp.Compute(2), mpcp.Unlock(audit),
		mpcp.Compute(1), mpcp.Unlock(orders),
		mpcp.Compute(2),
	)
	b.Task("archiver", mpcp.TaskSpec{Proc: 2, Period: 180},
		mpcp.Compute(1),
		mpcp.Lock(audit), mpcp.Compute(6), mpcp.Unlock(audit),
		mpcp.Compute(2),
	)
	return b.Build()
}

func buildCollapsed() (*mpcp.System, error) {
	b := mpcp.NewBuilder(3)
	db := b.Semaphore("database") // one coarse lock for all objects

	b.Task("billing", mpcp.TaskSpec{Proc: 0, Period: 100, Offset: 2},
		mpcp.Compute(2),
		mpcp.Lock(db), mpcp.Compute(4), mpcp.Unlock(db),
		mpcp.Compute(2),
	)
	b.Task("shipping", mpcp.TaskSpec{Proc: 1, Period: 140, Offset: 1},
		mpcp.Compute(2),
		mpcp.Lock(db), mpcp.Compute(4), mpcp.Unlock(db),
		mpcp.Compute(2),
	)
	b.Task("archiver", mpcp.TaskSpec{Proc: 2, Period: 180},
		mpcp.Compute(1),
		mpcp.Lock(db), mpcp.Compute(6), mpcp.Unlock(db),
		mpcp.Compute(2),
	)
	return b.Build()
}

func main() {
	nestedSys, err := buildNested()
	if err != nil {
		log.Fatal(err)
	}
	collapsedSys, err := buildCollapsed()
	if err != nil {
		log.Fatal(err)
	}
	designs := []design{
		{name: "nested (ordered locks)", sys: nestedSys, proto: "mpcp-nested", nested: true},
		{name: "collapsed (coarse lock)", sys: collapsedSys, proto: "mpcp", nested: false},
	}

	fmt.Printf("%-24s %-10s %-12s %-14s %-12s\n", "design", "deadlock", "worst B", "worst resp", "analyzable")
	for _, d := range designs {
		p, err := mpcp.NewProtocol(d.proto, mpcp.ProtocolOptions{})
		if err != nil {
			log.Fatal(err)
		}
		tr := mpcp.NewTrace()
		res, err := mpcp.Simulate(d.sys, p, mpcp.WithTrace(tr), mpcp.WithHorizon(2520))
		if err != nil {
			log.Fatal(err)
		}
		worstB, worstR := 0, 0
		for _, st := range res.Stats {
			if st.MaxMeasuredB > worstB {
				worstB = st.MaxMeasuredB
			}
			if st.MaxResponse > worstR {
				worstR = st.MaxResponse
			}
		}
		analyzable := "yes"
		if _, err := mpcp.BlockingBounds(d.sys, "mpcp", mpcp.ProtocolOptions{}); err != nil {
			analyzable = "no (nested)"
		}
		fmt.Printf("%-24s %-10v %-12d %-14d %-12s\n",
			d.name, res.Deadlock, worstB, worstR, analyzable)
		if vs := tr.CheckMutex(); len(vs) > 0 {
			log.Fatalf("%s: mutual exclusion violated: %v", d.name, vs)
		}
	}

	fmt.Println("\nThe nested design stays deadlock-free only because every transaction")
	fmt.Println("locks accounts < orders < audit; the paper's five blocking factors do")
	fmt.Println("not cover it (blocking chains cross processors transitively). Collapsing")
	fmt.Println("the objects into one lock — 'locking a larger section of the database' —")
	fmt.Println("restores the analysis at the price of serializing all transactions.")
}
