package mpcp_test

import (
	"fmt"

	"mpcp"
)

// ExampleBuilder constructs a two-processor system sharing one global
// resource and prints its derived structure.
func ExampleBuilder() {
	b := mpcp.NewBuilder(2)
	state := b.Semaphore("state")
	b.Task("sensor", mpcp.TaskSpec{Proc: 0, Period: 100},
		mpcp.Compute(4), mpcp.Lock(state), mpcp.Compute(2), mpcp.Unlock(state), mpcp.Compute(4))
	b.Task("fusion", mpcp.TaskSpec{Proc: 1, Period: 200},
		mpcp.Compute(8), mpcp.Lock(state), mpcp.Compute(3), mpcp.Unlock(state), mpcp.Compute(9))
	sys, err := b.Build()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("tasks: %d, global: %v, sensor priority > fusion: %v\n",
		len(sys.Tasks), sys.SemByID(state).Global,
		sys.TaskByID(1).Priority > sys.TaskByID(2).Priority)
	// Output:
	// tasks: 2, global: true, sensor priority > fusion: true
}

// ExampleSimulate runs the system above under the shared-memory protocol
// for one hyperperiod.
func ExampleSimulate() {
	b := mpcp.NewBuilder(2)
	state := b.Semaphore("state")
	b.Task("sensor", mpcp.TaskSpec{Proc: 0, Period: 100},
		mpcp.Compute(4), mpcp.Lock(state), mpcp.Compute(2), mpcp.Unlock(state), mpcp.Compute(4))
	b.Task("fusion", mpcp.TaskSpec{Proc: 1, Period: 200},
		mpcp.Compute(8), mpcp.Lock(state), mpcp.Compute(3), mpcp.Unlock(state), mpcp.Compute(9))
	sys, err := b.Build()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	p, err := mpcp.NewProtocol("mpcp", mpcp.ProtocolOptions{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	res, err := mpcp.Simulate(sys, p)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("horizon=%d misses=%v sensor jobs=%d fusion jobs=%d\n",
		res.Horizon, res.AnyMiss, res.Stats[1].Finished, res.Stats[2].Finished)
	// Output:
	// horizon=200 misses=false sensor jobs=2 fusion jobs=1
}

// ExampleAnalyze computes the Section 5.1 blocking bounds and runs the
// schedulability tests.
func ExampleAnalyze() {
	b := mpcp.NewBuilder(2)
	state := b.Semaphore("state")
	b.Task("sensor", mpcp.TaskSpec{Proc: 0, Period: 100},
		mpcp.Compute(4), mpcp.Lock(state), mpcp.Compute(2), mpcp.Unlock(state), mpcp.Compute(4))
	b.Task("fusion", mpcp.TaskSpec{Proc: 1, Period: 200},
		mpcp.Compute(8), mpcp.Lock(state), mpcp.Compute(3), mpcp.Unlock(state), mpcp.Compute(9))
	sys, err := b.Build()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	bounds, err := mpcp.BlockingBounds(sys, "mpcp", mpcp.ProtocolOptions{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	rep, err := mpcp.Analyze(sys, "mpcp", mpcp.ProtocolOptions{DeferredPenalty: true})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("B(sensor)=%d B(fusion)=%d schedulable=%v\n",
		bounds[1].Total, bounds[2].Total, rep.SchedulableResponse)
	// Output:
	// B(sensor)=3 B(fusion)=4 schedulable=true
}

// ExampleCeilings prints the Section 4 priority structure.
func ExampleCeilings() {
	b := mpcp.NewBuilder(2)
	state := b.Semaphore("state")
	b.Task("sensor", mpcp.TaskSpec{Proc: 0, Period: 100},
		mpcp.Compute(4), mpcp.Lock(state), mpcp.Compute(2), mpcp.Unlock(state))
	b.Task("fusion", mpcp.TaskSpec{Proc: 1, Period: 200},
		mpcp.Compute(8), mpcp.Lock(state), mpcp.Compute(3), mpcp.Unlock(state))
	sys, err := b.Build()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	tbl := mpcp.Ceilings(sys)
	fmt.Printf("P_H=%d P_G=%d ceiling(state)=%d\n", tbl.PH, tbl.PG, tbl.GlobalCeiling(state))
	// Output:
	// P_H=2 P_G=3 ceiling(state)=5
}
