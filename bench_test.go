package mpcp_test

// The benchmark harness regenerates every table and figure of the paper
// (see DESIGN.md's per-experiment index). Each BenchmarkE* target runs the
// corresponding experiment end to end — workload construction, simulation
// and/or analysis — and reports it once per iteration, so
//
//	go test -bench=. -benchmem
//
// reproduces the full evaluation. Micro-benchmarks for the simulator and
// the protocol hot paths follow at the end.

import (
	"io"
	"testing"

	"mpcp"
	"mpcp/internal/experiments"
	"mpcp/internal/obs/span"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	var run func() (*experiments.Table, error)
	for _, e := range experiments.All() {
		if e.ID == id {
			run = e.Run
		}
	}
	if run == nil {
		b.Fatalf("no experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t, err := run()
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if len(t.Rows) == 0 {
			b.Fatalf("%s: empty table", id)
		}
	}
}

// BenchmarkE1RemoteBlockingNoInheritance regenerates Figure 3-1 /
// Example 1: remote blocking growth without priority management.
func BenchmarkE1RemoteBlockingNoInheritance(b *testing.B) { benchExperiment(b, "E1") }

// BenchmarkE2InheritanceInsufficient regenerates Figure 3-2 / Example 2:
// priority inheritance alone cannot bound remote blocking.
func BenchmarkE2InheritanceInsufficient(b *testing.B) { benchExperiment(b, "E2") }

// BenchmarkE3DhallEffect regenerates the Section 3.2 dynamic-binding
// pathology.
func BenchmarkE3DhallEffect(b *testing.B) { benchExperiment(b, "E3") }

// BenchmarkE4PriorityCeilings regenerates Table 4-1.
func BenchmarkE4PriorityCeilings(b *testing.B) { benchExperiment(b, "E4") }

// BenchmarkE5GcsPriorities regenerates Table 4-2.
func BenchmarkE5GcsPriorities(b *testing.B) { benchExperiment(b, "E5") }

// BenchmarkE6Example4Trace regenerates the Figure 5-1 event trace.
func BenchmarkE6Example4Trace(b *testing.B) { benchExperiment(b, "E6") }

// BenchmarkE7SuspensionBound verifies the Theorem 1 / factor 1 bound.
func BenchmarkE7SuspensionBound(b *testing.B) { benchExperiment(b, "E7") }

// BenchmarkE8GcsPreemptionInvariant verifies Theorem 2's mechanism.
func BenchmarkE8GcsPreemptionInvariant(b *testing.B) { benchExperiment(b, "E8") }

// BenchmarkE9BlockingBoundTightness compares measured blocking with the
// Section 5.1 bounds.
func BenchmarkE9BlockingBoundTightness(b *testing.B) { benchExperiment(b, "E9") }

// BenchmarkE10ProtocolComparison regenerates the Section 5.2 MPCP vs DPCP
// schedulability sweep.
func BenchmarkE10ProtocolComparison(b *testing.B) { benchExperiment(b, "E10") }

// BenchmarkE11Theorem3Soundness verifies Theorem 3 against simulation.
func BenchmarkE11Theorem3Soundness(b *testing.B) { benchExperiment(b, "E11") }

// BenchmarkE12SpinOverhead regenerates the Section 5.4 busy-wait study.
func BenchmarkE12SpinOverhead(b *testing.B) { benchExperiment(b, "E12") }

// BenchmarkE13NestedGcs regenerates the Section 5.1 nested-gcs remark.
func BenchmarkE13NestedGcs(b *testing.B) { benchExperiment(b, "E13") }

// BenchmarkE14HybridProtocol evaluates the Section 6 mixed
// shared-memory/message-based variation.
func BenchmarkE14HybridProtocol(b *testing.B) { benchExperiment(b, "E14") }

// BenchmarkE15AllocationAffinity evaluates the Section 6 resource-
// affinity allocation advice.
func BenchmarkE15AllocationAffinity(b *testing.B) { benchExperiment(b, "E15") }

// BenchmarkE16AperiodicServer evaluates aperiodic service through a
// polling server (Section 3.1).
func BenchmarkE16AperiodicServer(b *testing.B) { benchExperiment(b, "E16") }

// --- Library micro-benchmarks ------------------------------------------

// BenchmarkSimulateHyperperiodMPCP measures raw simulator throughput: one
// hyperperiod of the default 4-processor random workload under MPCP.
func BenchmarkSimulateHyperperiodMPCP(b *testing.B) {
	sys, err := mpcp.GenerateWorkload(mpcp.DefaultWorkload(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mpcp.Simulate(sys, mustProtocol(b, "mpcp", mpcp.ProtocolOptions{})); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateHyperperiodMPCPReference is the same workload on the
// single-tick reference stepper — the baseline the event-horizon fast
// path is measured against.
func BenchmarkSimulateHyperperiodMPCPReference(b *testing.B) {
	sys, err := mpcp.GenerateWorkload(mpcp.DefaultWorkload(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mpcp.Simulate(sys, mustProtocol(b, "mpcp", mpcp.ProtocolOptions{}), mpcp.WithReferenceStepper()); err != nil {
			b.Fatal(err)
		}
	}
}

// sparseWorkload is the regime the fast path exists for: periods twenty
// times the default menu (hyperperiods grow multiplicatively with task
// periods) at 10% per-processor utilization,
// so the vast majority of ticks carry no release, completion or deadline.
// The headline >=5x speedup target is measured here
// (BenchmarkSimulateHyperperiodMPCPSparse vs ...SparseReference).
func sparseWorkload(b *testing.B) *mpcp.System {
	b.Helper()
	cfg := mpcp.DefaultWorkload(1)
	cfg.UtilPerProc = 0.1
	for i := range cfg.Periods {
		cfg.Periods[i] *= 20
	}
	sys, err := mpcp.GenerateWorkload(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

// BenchmarkSimulateHyperperiodMPCPSparse measures the fast path at 10%
// per-processor utilization.
func BenchmarkSimulateHyperperiodMPCPSparse(b *testing.B) {
	sys := sparseWorkload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mpcp.Simulate(sys, mustProtocol(b, "mpcp", mpcp.ProtocolOptions{})); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateHyperperiodMPCPSparseReference is the reference-
// stepper baseline of the sparse workload.
func BenchmarkSimulateHyperperiodMPCPSparseReference(b *testing.B) {
	sys := sparseWorkload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mpcp.Simulate(sys, mustProtocol(b, "mpcp", mpcp.ProtocolOptions{}), mpcp.WithReferenceStepper()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateHyperperiodMPCPSpans is the tracing-on counterpart
// of BenchmarkSimulateHyperperiodMPCP: the same workload with sim.init
// and sim.run spans streamed to a discarded JSONL sink. The base
// benchmark doubles as the tracing-off baseline, which must stay
// unchanged because a nil tracer short-circuits before any span work
// (docs/observability.md).
func BenchmarkSimulateHyperperiodMPCPSpans(b *testing.B) {
	sys, err := mpcp.GenerateWorkload(mpcp.DefaultWorkload(1))
	if err != nil {
		b.Fatal(err)
	}
	sink := span.NewStreamSink(io.Discard)
	tr := span.New(sink, "bench")
	root := tr.Start(mpcp.SpanContext{}, "bench.sim", "hyperperiod-mpcp")
	defer root.End()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mpcp.Simulate(sys, mustProtocol(b, "mpcp", mpcp.ProtocolOptions{}), mpcp.WithSpans(tr, root.Context())); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateHyperperiodDPCP is the DPCP counterpart.
func BenchmarkSimulateHyperperiodDPCP(b *testing.B) {
	sys, err := mpcp.GenerateWorkload(mpcp.DefaultWorkload(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mpcp.Simulate(sys, mustProtocol(b, "dpcp", mpcp.ProtocolOptions{})); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBlockingBounds measures the Section 5.1 analysis.
func BenchmarkBlockingBounds(b *testing.B) {
	sys, err := mpcp.GenerateWorkload(mpcp.DefaultWorkload(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mpcp.BlockingBounds(sys, "mpcp", mpcp.ProtocolOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyze measures bounds plus both schedulability tests.
func BenchmarkAnalyze(b *testing.B) {
	sys, err := mpcp.GenerateWorkload(mpcp.DefaultWorkload(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mpcp.Analyze(sys, "mpcp", mpcp.ProtocolOptions{DeferredPenalty: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerateWorkload measures the seeded generator.
func BenchmarkGenerateWorkload(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := mpcp.GenerateWorkload(mpcp.DefaultWorkload(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE17MinProcessors runs the Section 6 minimum-processor
// allocation search.
func BenchmarkE17MinProcessors(b *testing.B) { benchExperiment(b, "E17") }

// BenchmarkE18SpinVsSuspend quantifies the suspension-vs-busy-wait trade
// at global semaphores.
func BenchmarkE18SpinVsSuspend(b *testing.B) { benchExperiment(b, "E18") }

// BenchmarkE19DedicatedSyncProc quantifies the Section 5.2 extra-
// processor trade (dedicated synchronization vs extra compute).
func BenchmarkE19DedicatedSyncProc(b *testing.B) { benchExperiment(b, "E19") }
