package main

import (
	"encoding/json"

	"mpcp/internal/campaign"
)

// defaultSeed is the seed whose result digests are pinned in gate.go.
// Every other seed runs every gate except the pinned digest.
const defaultSeed = 1

// A workloadDef is one benchmark input: the campaign spec a repetition
// runs through campaign.Run, and the pool size it runs at.
type workloadDef struct {
	name string
	// workers is the point-evaluation pool size: the LocalPool's, and
	// the drain worker's in the traced run's coordinator pass.
	workers int
	// spec builds the spec document from the seed. The program under
	// test receives only these bytes.
	spec func(seed int64, tiny bool) []byte
}

func workloads(nproc int) []workloadDef {
	return []workloadDef{
		{name: "sweep-analysis", workers: nproc, spec: sweepAnalysisSpec},
		{name: "sweep-sim", workers: 1, spec: sweepSimSpec},
	}
}

func findWorkload(name string, nproc int) (workloadDef, bool) {
	for _, w := range workloads(nproc) {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func mustJSON(s *campaign.Spec) []byte {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err) // a campaign.Spec always marshals
	}
	return b
}

// sweepAnalysisSpec: every analyzable protocol over larger systems
// (4-8 processors, 4-6 tasks each, up to 3 global critical sections per
// task), no simulation, so blocking analysis does most of the work.
func sweepAnalysisSpec(seed int64, tiny bool) []byte {
	s := &campaign.Spec{
		Name:             "sweep-analysis",
		BaseSeed:         seed,
		SeedsPerPoint:    16,
		Protocols:        []string{"all"},
		Utils:            []float64{0.3, 0.4, 0.5, 0.6, 0.7},
		Procs:            []int{4, 6, 8},
		TasksPerProc:     []int{4, 6},
		CSMax:            []int{6},
		CSMin:            2,
		GlobalSems:       3,
		LocalSemsPerProc: 2,
		GcsPerTask:       [2]int{1, 3},
		LcsPerTask:       [2]int{0, 1},
		DeferredPenalty:  true,
	}
	if tiny {
		s.SeedsPerPoint = 1
		s.Utils = []float64{0.5}
		s.Procs = []int{4}
		s.TasksPerProc = []int{4}
	}
	return mustJSON(s)
}

// sweepSimPeriods has a hyperperiod of 12000 ticks, long enough that the
// confirmation simulation dominates each trial.
var sweepSimPeriods = []int{400, 500, 600, 750, 800, 1000, 1200, 1500, 2000, 2400, 3000}

// sweepSimSpec: suspending (mpcp, dpcp) and spinning (msrp, fmlp)
// protocols with simulation on, from sparse (0.3) to dense (0.8)
// per-processor utilization.
func sweepSimSpec(seed int64, tiny bool) []byte {
	s := &campaign.Spec{
		Name:             "sweep-sim",
		BaseSeed:         seed,
		SeedsPerPoint:    16,
		Protocols:        []string{"mpcp", "dpcp", "msrp", "fmlp"},
		Utils:            []float64{0.3, 0.4, 0.5, 0.6, 0.7, 0.8},
		Procs:            []int{2, 4},
		TasksPerProc:     []int{3, 4},
		CSMax:            []int{6},
		CSMin:            2,
		Periods:          sweepSimPeriods,
		GlobalSems:       3,
		LocalSemsPerProc: 2,
		GcsPerTask:       [2]int{1, 1},
		LcsPerTask:       [2]int{0, 1},
		DeferredPenalty:  true,
		Simulate:         true,
	}
	if tiny {
		s.SeedsPerPoint = 1
		s.Protocols = []string{"mpcp", "msrp"}
		s.Utils = []float64{0.3, 0.8}
	}
	return mustJSON(s)
}
