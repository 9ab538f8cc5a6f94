package analysis

import (
	"fmt"
	"strings"

	"mpcp/internal/ceiling"
	"mpcp/internal/task"
)

// Explain renders a human-readable account of why task id's blocking
// bound is what it is under the shared-memory protocol: which semaphores,
// critical sections and tasks contribute to each of the five factors.
// It recomputes the factors with full attribution, so the numbers match
// Bounds exactly for KindMPCP.
func Explain(sys *task.System, id task.ID, opts Options) (string, error) {
	if !sys.Validated() {
		return "", ErrNotValidated
	}
	ti := sys.TaskByID(id)
	if ti == nil {
		return "", fmt.Errorf("analysis: no task %d", id)
	}
	bounds, err := Bounds(sys, Options{Kind: KindMPCP, DeferredPenalty: opts.DeferredPenalty, GcsAtCeiling: opts.GcsAtCeiling})
	if err != nil {
		return "", err
	}
	b := bounds[id]
	tbl := ceiling.Compute(sys, opts.GcsAtCeiling)

	var w strings.Builder
	fmt.Fprintf(&w, "Worst-case blocking of task %d (%s), priority %d on P%d: B = %d ticks\n",
		ti.ID, ti.Name, ti.Priority, ti.Proc, b.Total)

	gcsI := sys.GlobalSections(ti.ID)
	ng := len(gcsI)
	fmt.Fprintf(&w, "The task enters %d global critical section(s), so it can suspend %d time(s).\n\n", ng, ng)

	// Factor 1.
	fmt.Fprintf(&w, "1. Local blocking around suspensions: %d\n", b.LocalBlocking)
	if b.LocalBlocking > 0 {
		var worst task.CriticalSection
		var owner *task.Task
		for _, tk := range sys.TasksOn(ti.Proc) {
			if tk.Priority >= ti.Priority {
				continue
			}
			for _, cs := range sys.LocalSections(tk.ID) {
				if tbl.LocalCeil[cs.Sem] >= ti.Priority && cs.Duration > worst.Duration {
					worst, owner = cs, tk
				}
			}
		}
		if owner != nil {
			fmt.Fprintf(&w, "   (%d arrival/suspension opportunities) x (%d ticks: task %d's section on %s, ceiling %d >= P%d)\n",
				ng+1, worst.Duration, owner.ID, semName(sys, worst.Sem), tbl.LocalCeil[worst.Sem], ti.Priority)
		}
	} else {
		fmt.Fprintf(&w, "   no lower-priority local critical section has a ceiling reaching this task\n")
	}

	// Factor 2.
	fmt.Fprintf(&w, "2. Global semaphore held by a lower-priority job: %d\n", b.GlobalHeldByLower)
	for _, cs := range gcsI {
		var worst task.CriticalSection
		var owner *task.Task
		for _, tk := range sys.Tasks {
			if tk.ID == ti.ID || tk.Priority >= ti.Priority {
				continue
			}
			for _, other := range sys.GlobalSections(tk.ID) {
				if other.Sem == cs.Sem && other.Duration > worst.Duration {
					worst, owner = other, tk
				}
			}
		}
		if owner != nil {
			fmt.Fprintf(&w, "   request on %s: up to %d ticks behind task %d\n",
				semName(sys, cs.Sem), worst.Duration, owner.ID)
		} else {
			fmt.Fprintf(&w, "   request on %s: no lower-priority user\n", semName(sys, cs.Sem))
		}
	}

	// Factor 3.
	fmt.Fprintf(&w, "3. Higher-priority remote requests preceding ours: %d\n", b.RemotePreemption)
	shared := make(map[task.SemID]bool)
	for _, cs := range gcsI {
		shared[cs.Sem] = true
	}
	for _, tj := range sys.Tasks {
		if tj.Proc == ti.Proc || tj.Priority <= ti.Priority {
			continue
		}
		dur := 0
		for _, cs := range sys.GlobalSections(tj.ID) {
			if shared[cs.Sem] {
				dur += cs.Duration
			}
		}
		if dur > 0 {
			// The window is T_i widened by tj's release jitter, over tj's
			// minimum interarrival: the count interferes charges.
			window := fmt.Sprint(ti.Period)
			if tj.Jitter > 0 {
				window = fmt.Sprintf("(%d+%d)", ti.Period, tj.Jitter)
			}
			fmt.Fprintf(&w, "   task %d on P%d: ceil(%s/%d)=%d release(s) x %d gcs ticks\n",
				tj.ID, tj.Proc, window, tj.EffectiveMinInterarrival(), interferes(ti.Period, tj), dur)
		}
	}

	// Factor 4.
	fmt.Fprintf(&w, "4. Preemption of the gcs directly blocking us: %d\n", b.BlockingProcGcs)

	// Factor 5.
	fmt.Fprintf(&w, "5. Lower-priority local gcs's executing above us: %d\n", b.LowerLocalGcs)
	for _, tk := range sys.TasksOn(ti.Proc) {
		if tk.Priority >= ti.Priority {
			continue
		}
		ngk := len(sys.GlobalSections(tk.ID))
		if ngk == 0 {
			continue
		}
		maxGcs := 0
		for _, cs := range sys.GlobalSections(tk.ID) {
			if cs.Duration > maxGcs {
				maxGcs = cs.Duration
			}
		}
		count := ng + 1
		if 2*ngk < count {
			count = 2 * ngk
		}
		fmt.Fprintf(&w, "   task %d: min(NG+1=%d, 2x%d)=%d boost(s) x %d ticks\n",
			tk.ID, ng+1, ngk, count, maxGcs)
	}

	if opts.DeferredPenalty {
		fmt.Fprintf(&w, "6. Deferred-execution penalty of suspending higher-priority local tasks: %d\n", b.DeferredPenalty)
		for _, tj := range sys.TasksOn(ti.Proc) {
			if tj.Priority <= ti.Priority {
				continue
			}
			if len(sys.GlobalSections(tj.ID)) > 0 {
				fmt.Fprintf(&w, "   task %d can defer: one extra execution of C=%d\n", tj.ID, tj.WCET())
			}
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
