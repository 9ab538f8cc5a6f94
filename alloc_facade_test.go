package mpcp_test

import (
	"strings"
	"testing"

	"mpcp"
)

func TestAllocationFacadeEndToEnd(t *testing.T) {
	specs, sems, err := mpcp.GenerateUnboundSpecs(mpcp.DefaultUnboundSpecs(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 12 || len(sems) != 4 {
		t.Fatalf("specs=%d sems=%d", len(specs), len(sems))
	}

	ff, err := mpcp.FirstFitRM(specs, 4)
	if err != nil {
		t.Fatalf("first fit: %v", err)
	}
	aff, err := mpcp.ResourceAffinity(specs, 4)
	if err != nil {
		t.Fatalf("affinity: %v", err)
	}

	sysFF, err := mpcp.ApplyBinding(specs, ff, 4, sems)
	if err != nil {
		t.Fatal(err)
	}
	sysAff, err := mpcp.ApplyBinding(specs, aff, 4, sems)
	if err != nil {
		t.Fatal(err)
	}
	countGlobals := func(sys *mpcp.System) int {
		n := 0
		for _, sem := range sys.Sems {
			if sem.Global {
				n++
			}
		}
		return n
	}
	if countGlobals(sysAff) > countGlobals(sysFF) {
		t.Errorf("affinity produced more globals (%d) than first-fit (%d)",
			countGlobals(sysAff), countGlobals(sysFF))
	}

	dot := mpcp.SharingGraphDOT(specs, sems)
	if !strings.Contains(dot, "graph sharing") {
		t.Error("dot output malformed")
	}
}

func TestMinProcessorsMPCP(t *testing.T) {
	specs, sems, err := mpcp.GenerateUnboundSpecs(mpcp.DefaultUnboundSpecs(8))
	if err != nil {
		t.Fatal(err)
	}
	n, binding, sys, err := mpcp.MinProcessorsMPCP(specs, sems, 12)
	if err != nil {
		t.Fatalf("min processors: %v", err)
	}
	if n < 1 || n > 12 {
		t.Fatalf("n = %d out of range", n)
	}
	if len(binding) != len(specs) {
		t.Fatalf("binding covers %d of %d tasks", len(binding), len(specs))
	}
	// The returned system must actually pass the analysis it was selected
	// by, and simulate cleanly.
	rep, err := mpcp.Analyze(sys, "mpcp", mpcp.ProtocolOptions{DeferredPenalty: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SchedulableResponse {
		t.Error("returned system fails the analysis it was selected by")
	}
	res, err := mpcp.Simulate(sys, mustProtocol(t, "mpcp", mpcp.ProtocolOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if res.AnyMiss {
		t.Error("admitted minimal-processor system missed a deadline")
	}
	// Minimality: n-1 processors must not admit (when n > 1).
	if n > 1 {
		if _, _, _, err := mpcp.MinProcessorsMPCP(specs, sems, n-1); err == nil {
			t.Errorf("n-1 = %d processors also admitted; %d not minimal", n-1, n)
		}
	}
}
