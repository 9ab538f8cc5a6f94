// Package mpcp is a library for real-time synchronization on shared-memory
// multiprocessors, reproducing Rajkumar's ICDCS 1990 paper "Real-Time
// Synchronization Protocols for Shared Memory Multiprocessors".
//
// The library provides:
//
//   - A workload model: periodic tasks statically bound to processors,
//     whose jobs interleave computation with P()/V() operations on binary
//     semaphores (local to one processor or global in shared memory).
//   - The paper's shared-memory synchronization protocol (MPCP): the
//     uniprocessor priority ceiling protocol for local semaphores,
//     priority-queued global semaphores acquired by atomic shared-memory
//     transactions, and global critical sections executing at fixed
//     priorities above every assigned task priority.
//   - Baselines for comparison: raw semaphores, naive priority
//     inheritance, uniprocessor PCP, and the message-based multiprocessor
//     protocol of Rajkumar, Sha & Lehoczky (the paper's reference [8]).
//   - A deterministic discrete-time multiprocessor scheduling simulator
//     that reproduces the paper's worked examples tick for tick.
//   - Worst-case blocking analysis (the five blocking factors of Section
//     5.1) and schedulability tests (Theorem 3's utilization bound and a
//     response-time iteration).
//   - Task allocation heuristics for static binding and a shared-memory
//     substrate model for busy-wait overhead studies.
//
// # Quick start
//
//	b := mpcp.NewBuilder(2)
//	s := b.Semaphore("shared-state")
//	b.Task("sensor", mpcp.TaskSpec{Proc: 0, Period: 100},
//		mpcp.Compute(10), mpcp.Lock(s), mpcp.Compute(4), mpcp.Unlock(s), mpcp.Compute(6))
//	b.Task("fusion", mpcp.TaskSpec{Proc: 1, Period: 200},
//		mpcp.Compute(20), mpcp.Lock(s), mpcp.Compute(6), mpcp.Unlock(s), mpcp.Compute(30))
//	sys, err := b.Build()
//	if err != nil { ... }
//	p, err := mpcp.NewProtocol("mpcp", mpcp.ProtocolOptions{})
//	res, err := mpcp.Simulate(sys, p, mpcp.WithHorizon(1200))
//	rep, err := mpcp.Analyze(sys, "mpcp", mpcp.ProtocolOptions{})
//
// A protocol and its blocking bound are chosen by registry name, the
// same names the command-line tools take; Protocols lists them.
//
// All simulation is deterministic: identical inputs produce identical
// traces and statistics.
package mpcp
