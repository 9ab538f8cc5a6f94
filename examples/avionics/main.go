// Avionics: a flight-control workload of the kind the paper's
// introduction motivates — three processors running control loops,
// navigation and display tasks that share a navigation database and an
// actuator command block through global semaphores.
//
// The example compares four synchronization disciplines on the same
// workload: raw semaphores, priority inheritance, the message-based
// protocol of [8] (DPCP) and the paper's shared-memory protocol (MPCP),
// reporting worst observed blocking and deadline misses for each, plus
// the analytical bounds for the two analyzable protocols.
//
//	go run ./examples/avionics
package main

import (
	"fmt"
	"log"

	"mpcp"
)

func build() (*mpcp.System, error) {
	b := mpcp.NewBuilder(3)

	navDB := b.Semaphore("nav-database")  // global: P0, P1, P2
	actCmd := b.Semaphore("actuator-cmd") // global: P0, P1
	dispBuf := b.Semaphore("display-buf") // local to P2
	filtSt := b.Semaphore("filter-state") // local to P0

	// Processor 0: inner control loop + attitude filter.
	b.Task("inner-loop", mpcp.TaskSpec{Proc: 0, Period: 100},
		mpcp.Compute(8),
		mpcp.Lock(actCmd), mpcp.Compute(3), mpcp.Unlock(actCmd),
		mpcp.Compute(6),
	)
	b.Task("att-filter", mpcp.TaskSpec{Proc: 0, Period: 200},
		mpcp.Compute(10),
		mpcp.Lock(filtSt), mpcp.Compute(5), mpcp.Unlock(filtSt),
		mpcp.Compute(8),
		mpcp.Lock(navDB), mpcp.Compute(4), mpcp.Unlock(navDB),
		mpcp.Compute(8),
	)
	b.Task("gain-sched", mpcp.TaskSpec{Proc: 0, Period: 400},
		mpcp.Compute(20),
		mpcp.Lock(filtSt), mpcp.Compute(6), mpcp.Unlock(filtSt),
		mpcp.Compute(20),
	)

	// Processor 1: guidance and navigation.
	b.Task("guidance", mpcp.TaskSpec{Proc: 1, Period: 200},
		mpcp.Compute(12),
		mpcp.Lock(actCmd), mpcp.Compute(4), mpcp.Unlock(actCmd),
		mpcp.Compute(12),
	)
	b.Task("navigation", mpcp.TaskSpec{Proc: 1, Period: 400},
		mpcp.Compute(25),
		mpcp.Lock(navDB), mpcp.Compute(8), mpcp.Unlock(navDB),
		mpcp.Compute(25),
	)

	// Processor 2: displays and telemetry.
	b.Task("pfd-update", mpcp.TaskSpec{Proc: 2, Period: 200},
		mpcp.Compute(10),
		mpcp.Lock(dispBuf), mpcp.Compute(4), mpcp.Unlock(dispBuf),
		mpcp.Compute(6),
		mpcp.Lock(navDB), mpcp.Compute(3), mpcp.Unlock(navDB),
		mpcp.Compute(6),
	)
	b.Task("telemetry", mpcp.TaskSpec{Proc: 2, Period: 400},
		mpcp.Compute(30),
		mpcp.Lock(dispBuf), mpcp.Compute(6), mpcp.Unlock(dispBuf),
		mpcp.Compute(30),
	)

	return b.Build()
}

func main() {
	sys, err := build()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("avionics workload: %d processors, %d tasks, utilization %.2f\n\n",
		sys.NumProcs, len(sys.Tasks), sys.Utilization())

	protocols := []struct {
		name, protocol string
	}{
		{"raw semaphores", "none"},
		{"priority inheritance", "inherit"},
		{"message-based (DPCP)", "dpcp"},
		{"shared-memory (MPCP)", "mpcp"},
	}

	fmt.Printf("%-22s %-8s %-10s %-12s\n", "protocol", "misses", "worst B", "worst resp")
	for _, pc := range protocols {
		p, err := mpcp.NewProtocol(pc.protocol, mpcp.ProtocolOptions{})
		if err != nil {
			log.Fatal(err)
		}
		res, err := mpcp.Simulate(sys, p)
		if err != nil {
			log.Fatal(err)
		}
		misses, worstB, worstR := 0, 0, 0
		for _, st := range res.Stats {
			misses += st.Missed
			if st.MaxMeasuredB > worstB {
				worstB = st.MaxMeasuredB
			}
			if st.MaxResponse > worstR {
				worstR = st.MaxResponse
			}
		}
		fmt.Printf("%-22s %-8d %-10d %-12d\n", pc.name, misses, worstB, worstR)
	}

	// Analytical guarantees exist only for the two priority-ceiling
	// based protocols.
	fmt.Println("\nanalytical worst-case blocking (ticks):")
	mb, err := mpcp.BlockingBounds(sys, "mpcp", mpcp.ProtocolOptions{})
	if err != nil {
		log.Fatal(err)
	}
	db, err := mpcp.BlockingBounds(sys, "dpcp", mpcp.ProtocolOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %-12s %-8s %-8s\n", "task", "MPCP", "DPCP")
	for _, t := range sys.Tasks {
		fmt.Printf("  %-12s %-8d %-8d\n", t.Name, mb[t.ID].Total, db[t.ID].Total)
	}

	repM, err := mpcp.Analyze(sys, "mpcp", mpcp.ProtocolOptions{DeferredPenalty: true})
	if err != nil {
		log.Fatal(err)
	}
	repD, err := mpcp.Analyze(sys, "dpcp", mpcp.ProtocolOptions{DeferredPenalty: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nschedulable (response-time test): MPCP=%v DPCP=%v\n",
		repM.SchedulableResponse, repD.SchedulableResponse)
	fmt.Println("\nnote: observed blocking depends on release phasing; the analytical")
	fmt.Println("bounds cover every phasing, which is what a guarantee requires.")
}
