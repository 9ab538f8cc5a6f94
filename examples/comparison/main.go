// Comparison: the Section 5.2 study as a library user would run it — a
// utilization sweep over seeded random workloads, comparing how many task
// sets the shared-memory protocol (MPCP) and the message-based protocol
// (DPCP) can guarantee, and cross-checking the guarantees against
// simulation.
//
//	go run ./examples/comparison
package main

import (
	"fmt"
	"log"

	"mpcp"
)

func main() {
	const seedsPerPoint = 15
	penalty := mpcp.ProtocolOptions{DeferredPenalty: true}

	fmt.Println("schedulability vs per-processor utilization (response-time test)")
	fmt.Printf("%-10s %-12s %-12s %-14s %-14s\n",
		"util/proc", "MPCP sched", "DPCP sched", "MPCP sim-miss", "DPCP sim-miss")

	for _, util := range []float64{0.30, 0.40, 0.50, 0.60, 0.70} {
		var schedM, schedD, missM, missD int
		for seed := int64(1); seed <= seedsPerPoint; seed++ {
			cfg := mpcp.DefaultWorkload(seed)
			cfg.UtilPerProc = util
			sys, err := mpcp.GenerateWorkload(cfg)
			if err != nil {
				log.Fatal(err)
			}

			repM, err := mpcp.Analyze(sys, "mpcp", penalty)
			if err != nil {
				log.Fatal(err)
			}
			if repM.SchedulableResponse {
				schedM++
			}
			repD, err := mpcp.Analyze(sys, "dpcp", penalty)
			if err != nil {
				log.Fatal(err)
			}
			if repD.SchedulableResponse {
				schedD++
			}

			resM, err := simulate(sys, "mpcp")
			if err != nil {
				log.Fatal(err)
			}
			if resM.AnyMiss {
				missM++
				if repM.SchedulableResponse {
					log.Fatalf("soundness violated: admitted MPCP set missed (seed %d)", seed)
				}
			}
			resD, err := simulate(sys, "dpcp")
			if err != nil {
				log.Fatal(err)
			}
			if resD.AnyMiss {
				missD++
				if repD.SchedulableResponse {
					log.Fatalf("soundness violated: admitted DPCP set missed (seed %d)", seed)
				}
			}
		}
		pct := func(n int) string { return fmt.Sprintf("%d/%d", n, seedsPerPoint) }
		fmt.Printf("%-10.2f %-12s %-12s %-14s %-14s\n",
			util, pct(schedM), pct(schedD), pct(missM), pct(missD))
	}

	fmt.Println("\nablation: gcs priority assignment (paper's P_G+P_h vs ceiling) at util 0.5")
	var paperAdmits, ceilAdmits int
	for seed := int64(1); seed <= seedsPerPoint; seed++ {
		cfg := mpcp.DefaultWorkload(seed)
		cfg.UtilPerProc = 0.5
		sys, err := mpcp.GenerateWorkload(cfg)
		if err != nil {
			log.Fatal(err)
		}
		rp, err := mpcp.Analyze(sys, "mpcp", penalty)
		if err != nil {
			log.Fatal(err)
		}
		if rp.SchedulableResponse {
			paperAdmits++
		}
		rc, err := mpcp.Analyze(sys, "mpcp-ceil", penalty)
		if err != nil {
			log.Fatal(err)
		}
		if rc.SchedulableResponse {
			ceilAdmits++
		}
	}
	fmt.Printf("admitted: P_G+P_h %d/%d, ceiling %d/%d\n",
		paperAdmits, seedsPerPoint, ceilAdmits, seedsPerPoint)
}

// simulate runs sys for one hyperperiod under the named protocol.
func simulate(sys *mpcp.System, protocol string) (*mpcp.SimResult, error) {
	p, err := mpcp.NewProtocol(protocol, mpcp.ProtocolOptions{})
	if err != nil {
		return nil, err
	}
	return mpcp.Simulate(sys, p)
}
