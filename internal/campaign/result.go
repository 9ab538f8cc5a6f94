package campaign

import (
	"fmt"

	"mpcp/internal/experiments"
)

// PointResult aggregates one grid point: SeedsPerPoint trials of workload
// generation, blocking analysis and (optionally) simulation. All counts
// are out of Trials. Timing is deliberately absent so result files are
// byte-identical across runs and worker counts.
type PointResult struct {
	Key          string  `json:"key"`
	Protocol     string  `json:"protocol"`
	Util         float64 `json:"util"`
	Procs        int     `json:"procs"`
	TasksPerProc int     `json:"tasks_per_proc"`
	CSMax        int     `json:"cs_max"`

	Trials int `json:"trials"`

	// Acceptance counts: trials admitted by the Theorem 3 utilization
	// test and by the response-time iteration.
	SchedUtil     int `json:"sched_util"`
	SchedResponse int `json:"sched_response"`

	// Simulation confirmation (when Spec.Simulate).
	Simulated    int `json:"simulated,omitempty"`
	SimMisses    int `json:"sim_misses,omitempty"`
	SimDeadlocks int `json:"sim_deadlocks,omitempty"`
	// SimTruncated counts runs whose horizon hit the tick budget before
	// one full hyperperiod.
	SimTruncated int `json:"sim_truncated,omitempty"`
	// SimMissedAdmitted counts trials the response-time test admitted
	// that nonetheless missed a deadline in simulation — soundness
	// violations, always worth zero.
	SimMissedAdmitted int `json:"sim_missed_admitted,omitempty"`

	// Blocking statistics over successful trials: the worst per-task
	// blocking bound seen, and the mean of per-trial mean bounds.
	MaxBlocking  int     `json:"max_blocking"`
	MeanBlocking float64 `json:"mean_blocking"`

	// Per-trial failures (recorded, not fatal).
	GenFailed      int `json:"gen_failed,omitempty"`
	AnalysisFailed int `json:"analysis_failed,omitempty"`
	SimFailed      int `json:"sim_failed,omitempty"`

	// Err is set when the whole point failed (e.g. a panic was
	// recovered); such points are re-run on resume.
	Err string `json:"err,omitempty"`
}

// Failures returns the number of degraded trials plus one for a
// point-level error. A campaign with any failures exits nonzero so CI
// catches silently degraded sweeps.
func (r *PointResult) Failures() int {
	n := r.GenFailed + r.AnalysisFailed + r.SimFailed
	if r.Err != "" {
		n++
	}
	return n
}

// Campaign is a completed (or resumed-to-completion) run: the spec plus
// one result per point, in spec order.
type Campaign struct {
	Spec    *Spec
	Results []*PointResult
}

// Failures sums per-point failure counts across the campaign.
func (c *Campaign) Failures() int {
	n := 0
	for _, r := range c.Results {
		n += r.Failures()
	}
	return n
}

// Table renders the campaign as a paper-style summary table, reusing the
// experiments rendering so sweeps line up with the reproduced artifacts.
func (c *Campaign) Table() *experiments.Table {
	t := experiments.NewTable("SWEEP", fmt.Sprintf("campaign %q: acceptance ratios", c.Spec.Name),
		"protocol", "util", "procs", "tasks", "cs", "trials",
		"accept-util", "accept-rt", "sim-miss", "maxB", "meanB", "fail")
	for _, r := range c.Results {
		pct := func(n int) string {
			if r.Trials == 0 {
				return "-"
			}
			return fmt.Sprintf("%.0f%%", 100*float64(n)/float64(r.Trials))
		}
		sim := "-"
		if r.Simulated > 0 {
			sim = fmt.Sprintf("%.0f%%", 100*float64(r.SimMisses)/float64(r.Simulated))
		}
		t.Rows = append(t.Rows, []string{
			r.Protocol,
			fmt.Sprintf("%.2f", r.Util),
			fmt.Sprintf("%d", r.Procs),
			fmt.Sprintf("%d", r.TasksPerProc),
			fmt.Sprintf("%d", r.CSMax),
			fmt.Sprintf("%d", r.Trials),
			pct(r.SchedUtil),
			pct(r.SchedResponse),
			sim,
			fmt.Sprintf("%d", r.MaxBlocking),
			fmt.Sprintf("%.1f", r.MeanBlocking),
			fmt.Sprintf("%d", r.Failures()),
		})
	}
	return t
}
