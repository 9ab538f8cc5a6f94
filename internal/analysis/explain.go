package analysis

import (
	"fmt"
	"slices"
	"strings"

	"mpcp/internal/task"
)

// composedTitles heads Composed's Explain sections.
var composedTitles = [...]string{
	"Local blocking, per arrival or suspension",
	"Global semaphore held by a lower-priority job, per request",
	"Higher-priority requests preceding ours, per release in the period",
	"Preemption of the gcs directly blocking us, per release in the period",
	"Lower-priority gcs's per boost, and agents per release, executing above us",
	"Deferred-execution penalty, one execution per suspending higher-priority local task",
}

// composedTerms heads Composed's Explain list.
const composedTerms = "Each term is count x ticks of the named task's section, agent or execution."

// Explain renders a human-readable account of why task id's blocking
// bound under opts is what it is. The headline is Bounds' Total, and
// under each factor it lists every term the analysis charged to the
// task: the task whose sections, spin or execution are charged, the
// semaphore and whether the section runs as a remote agent, and count x
// ticks. The terms of each factor sum to it by construction. Factor 6
// is listed only with opts.DeferredPenalty.
func (a *Analysis) Explain(sys *task.System, id task.ID, opts Options) (string, error) {
	if err := checkAnalyzable(sys); err != nil {
		return "", err
	}
	i := slices.IndexFunc(sys.Tasks, func(t *task.Task) bool { return t.ID == id })
	if i < 0 {
		return "", fmt.Errorf("analysis: no task %d", id)
	}
	ti := sys.Tasks[i]
	var tbl table
	if err := a.prepare(&tbl, sys, opts); err != nil {
		return "", err
	}
	b := &Bound{Task: id}
	var log termLog
	a.bound(&tbl, &log, b, i)

	var w strings.Builder
	fmt.Fprintf(&w, "Worst-case blocking of task %d (%s), priority %d on P%d: B = %d ticks\n",
		ti.ID, ti.Name, ti.Priority, ti.Proc, b.Total)
	w.WriteString(a.terms + "\n\n")
	for i, f := range b.Factors() {
		if i == len(a.titles)-1 && !opts.DeferredPenalty {
			break
		}
		fmt.Fprintf(&w, "%d. %s: %d\n", i+1, a.titles[i], f.Ticks)
		for _, t := range log {
			if t.factor != i+1 {
				continue
			}
			fmt.Fprintf(&w, "   task %d", t.task)
			if t.agent {
				w.WriteString(" agent")
			}
			if t.onSem {
				fmt.Fprintf(&w, " on %s", semName(sys, t.sem))
			}
			fmt.Fprintf(&w, ": %d x %d ticks\n", t.count, t.ticks)
		}
	}
	return w.String(), nil
}

func semName(sys *task.System, s task.SemID) string {
	if sem := sys.SemByID(s); sem != nil && sem.Name != "" {
		return sem.Name
	}
	return fmt.Sprintf("S%d", s)
}
