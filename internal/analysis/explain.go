package analysis

import (
	"fmt"
	"strings"

	"mpcp/internal/task"
)

// factorTitles heads Explain's sections, in Bound.Factors order, and
// names what each term's count counts.
var factorTitles = [...]string{
	"Local blocking, per arrival or suspension",
	"Global semaphore held by a lower-priority job, per request",
	"Higher-priority requests preceding ours, per release in the period",
	"Preemption of the gcs directly blocking us, per release in the period",
	"Lower-priority gcs's per boost, and agents per release, executing above us",
	"Deferred-execution penalty, one execution per suspending higher-priority local task",
}

// Explain renders a human-readable account of why task id's blocking
// bound under opts is what it is. The headline is Bounds' Total, and
// under each factor it lists every term compose charged to the task: the
// task whose sections or execution are charged, the semaphore and
// whether the section runs as a remote agent, and count x ticks. The
// terms of each factor sum to it by construction.
func Explain(sys *task.System, id task.ID, opts Options) (string, error) {
	if !sys.Validated() {
		return "", ErrNotValidated
	}
	ti := sys.TaskByID(id)
	if ti == nil {
		return "", fmt.Errorf("analysis: no task %d", id)
	}
	log := termLog{}
	all, err := compose(sys, opts, log)
	if err != nil {
		return "", err
	}
	b := all[id]

	var w strings.Builder
	fmt.Fprintf(&w, "Worst-case blocking of task %d (%s), priority %d on P%d: B = %d ticks\n",
		ti.ID, ti.Name, ti.Priority, ti.Proc, b.Total)
	w.WriteString("Each term is count x ticks of the named task's section, agent or execution.\n\n")
	for i, f := range b.Factors() {
		if i == len(factorTitles)-1 && !opts.DeferredPenalty {
			break
		}
		fmt.Fprintf(&w, "%d. %s: %d\n", i+1, factorTitles[i], f.Ticks)
		for _, t := range log[id] {
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
