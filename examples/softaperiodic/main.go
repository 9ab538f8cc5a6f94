// Softaperiodic: hard periodic control tasks sharing resources under the
// shared-memory protocol, plus a soft aperiodic workload (operator
// commands) served by a polling server, as Section 3.1 assumes. One
// global semaphore is handled message-based through the hybrid protocol
// to keep its critical sections off the control processor — the mixing
// the paper's conclusion proposes.
//
//	go run ./examples/softaperiodic
package main

import (
	"fmt"
	"log"

	"mpcp"
)

func main() {
	const (
		serverPeriod = 30
		serverBudget = 6
		horizon      = 5400
	)

	b := mpcp.NewBuilder(2)
	cmdQ := b.Semaphore("command-queue") // global; will be handled remotely
	state := b.Semaphore("plant-state")  // global, shared-memory rules

	// Processor 0: the control processor. Highest priority goes to the
	// polling server so operator commands get low latency.
	serverID := b.Task("cmd-server", mpcp.TaskSpec{Proc: 0, Period: serverPeriod, Priority: 5},
		mpcp.Compute(serverBudget))
	b.Task("control", mpcp.TaskSpec{Proc: 0, Period: 60, Priority: 4},
		mpcp.Compute(6),
		mpcp.Lock(state), mpcp.Compute(3), mpcp.Unlock(state),
		mpcp.Compute(6),
	)
	b.Task("logger", mpcp.TaskSpec{Proc: 0, Period: 180, Priority: 2},
		mpcp.Compute(10),
		mpcp.Lock(cmdQ), mpcp.Compute(4), mpcp.Unlock(cmdQ),
		mpcp.Compute(10),
	)

	// Processor 1: estimation and command handling.
	b.Task("estimator", mpcp.TaskSpec{Proc: 1, Period: 90, Priority: 3},
		mpcp.Compute(8),
		mpcp.Lock(state), mpcp.Compute(4), mpcp.Unlock(state),
		mpcp.Compute(8),
	)
	b.Task("dispatcher", mpcp.TaskSpec{Proc: 1, Period: 180, Priority: 1},
		mpcp.Compute(12),
		mpcp.Lock(cmdQ), mpcp.Compute(5), mpcp.Unlock(cmdQ),
		mpcp.Compute(12),
	)

	sys, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	// Handle the command queue message-based on processor 1, so its
	// critical sections never preempt the control processor.
	protocol, err := mpcp.NewProtocol("hybrid", mpcp.ProtocolOptions{
		RemoteSems: map[mpcp.SemID]bool{cmdQ: true},
		DPCPAssign: map[mpcp.SemID]mpcp.ProcID{cmdQ: 1},
	})
	if err != nil {
		log.Fatal(err)
	}

	tr := mpcp.NewTrace()
	res, err := mpcp.Simulate(sys, protocol, mpcp.WithHorizon(horizon), mpcp.WithTrace(tr))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("simulated %d ticks under %s\n", res.Horizon, res.Protocol)
	misses := 0
	for _, t := range sys.Tasks {
		st := res.Stats[t.ID]
		misses += st.Missed
		fmt.Printf("  %-11s jobs=%-4d missed=%-2d maxResp=%-4d observedB=%d\n",
			t.Name, st.Finished, st.Missed, st.MaxResponse, st.MaxMeasuredB)
	}
	if misses > 0 {
		log.Fatal("hard tasks missed deadlines")
	}

	// Aperiodic operator commands: pseudo-Poisson, mean interarrival 75
	// ticks, 1-5 ticks of work each.
	reqs := mpcp.GenerateAperiodicStream(11, horizon*3/4, 75, 1, 5)
	served, err := mpcp.ServePolling(tr, serverID, reqs)
	if err != nil {
		log.Fatal(err)
	}
	var done, sum, worst, exceed int
	for _, s := range served {
		r := s.Response()
		if r < 0 {
			continue
		}
		done++
		sum += r
		if r > worst {
			worst = r
		}
		if r > mpcp.PollingResponseBound(serverPeriod, serverBudget, s.Work) {
			exceed++
		}
	}
	fmt.Printf("\naperiodic commands: %d arrived, %d served\n", len(reqs), done)
	if done > 0 {
		fmt.Printf("  mean response %.1f ticks, worst %d, isolated-bound exceedances %d\n",
			float64(sum)/float64(done), worst, exceed)
	}
	fmt.Println("\nhard deadlines all met while soft commands were served —")
	fmt.Println("the aperiodic-via-periodic-server assumption of Section 3.1.")
}
