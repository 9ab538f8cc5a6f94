// Quickstart: two processors sharing one global resource under the
// shared-memory synchronization protocol (MPCP).
//
// It builds a four-task system, checks schedulability analytically, runs
// one hyperperiod in the simulator, and prints the per-task outcome.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"mpcp"
)

func main() {
	b := mpcp.NewBuilder(2)

	// One globally shared resource (a sensor-fusion state block) and one
	// resource local to processor 0.
	state := b.Semaphore("fusion-state")
	buffer := b.Semaphore("p0-buffer")

	// Priorities are left unset: rate-monotonic assignment at Build.
	b.Task("imu", mpcp.TaskSpec{Proc: 0, Period: 100},
		mpcp.Compute(5),
		mpcp.Lock(buffer), mpcp.Compute(3), mpcp.Unlock(buffer),
		mpcp.Compute(4),
		mpcp.Lock(state), mpcp.Compute(4), mpcp.Unlock(state),
		mpcp.Compute(4),
	)
	b.Task("camera", mpcp.TaskSpec{Proc: 0, Period: 400},
		mpcp.Compute(30),
		mpcp.Lock(buffer), mpcp.Compute(6), mpcp.Unlock(buffer),
		mpcp.Compute(30),
	)
	b.Task("fusion", mpcp.TaskSpec{Proc: 1, Period: 200},
		mpcp.Compute(10),
		mpcp.Lock(state), mpcp.Compute(8), mpcp.Unlock(state),
		mpcp.Compute(20),
	)
	b.Task("telemetry", mpcp.TaskSpec{Proc: 1, Period: 400},
		mpcp.Compute(20),
		mpcp.Lock(state), mpcp.Compute(4), mpcp.Unlock(state),
		mpcp.Compute(20),
	)

	sys, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	// Worst-case blocking bounds (the five factors of Section 5.1) and
	// the schedulability verdict.
	bounds, err := mpcp.BlockingBounds(sys, "mpcp", mpcp.ProtocolOptions{})
	if err != nil {
		log.Fatal(err)
	}
	rep, err := mpcp.Analyze(sys, "mpcp", mpcp.ProtocolOptions{DeferredPenalty: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("analytical worst-case blocking (ticks):")
	for _, t := range sys.Tasks {
		fmt.Printf("  %-10s B=%d\n", t.Name, bounds[t.ID].Total)
	}
	fmt.Printf("schedulable: utilization test=%v, response-time test=%v\n\n",
		rep.SchedulableUtil, rep.SchedulableResponse)

	// Simulate one hyperperiod under MPCP via a Session and verify the
	// invariants. (mpcp.Simulate is the one-call shorthand; a Session
	// additionally supports tick-by-tick Step for interactive tooling.)
	p, err := mpcp.NewProtocol("mpcp", mpcp.ProtocolOptions{})
	if err != nil {
		log.Fatal(err)
	}
	sess, err := mpcp.Start(sys, p, mpcp.WithTrace(mpcp.NewTrace()))
	if err != nil {
		log.Fatal(err)
	}
	res, err := sess.Run()
	if err != nil {
		log.Fatal(err)
	}
	tr := sess.Trace()
	fmt.Printf("simulated %d ticks under %s\n", res.Horizon, res.Protocol)
	for _, t := range sys.Tasks {
		st := res.Stats[t.ID]
		fmt.Printf("  %-10s jobs=%-3d missed=%-2d maxResponse=%-4d observedB=%-3d (bound %d)\n",
			t.Name, st.Finished, st.Missed, st.MaxResponse, st.MaxMeasuredB, bounds[t.ID].Total)
	}
	if vs := tr.CheckMutex(); len(vs) > 0 {
		log.Fatalf("mutual exclusion violated: %v", vs)
	}
	if vs := tr.CheckGcsPreemption(sys.NumProcs); len(vs) > 0 {
		log.Fatalf("gcs preemption violated: %v", vs)
	}
	fmt.Println("\ninvariants hold: mutual exclusion, gcs never preempted by non-critical code")
}
