// Package alloc implements static task-to-processor binding (Section 3.2)
// and the comparison against dynamic binding. It provides the bin-packing
// heuristics a system integrator would use offline — rate-monotonic
// first-fit and a resource-affinity variant that co-locates tasks sharing
// semaphores (Section 6's recommendation) — plus a small global
// rate-monotonic simulator that demonstrates the Dhall effect the paper
// uses to justify static binding.
package alloc

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"mpcp/internal/analysis"
	"mpcp/internal/task"
)

// Spec describes one task before binding: everything except its processor.
type Spec struct {
	ID     task.ID
	Name   string
	Period int
	Body   []task.Segment
}

func (s Spec) wcet() int {
	c := 0
	for _, seg := range s.Body {
		if seg.Kind == task.SegCompute {
			c += seg.Duration
		}
	}
	return c
}

func (s Spec) utilization() float64 {
	if s.Period == 0 {
		return 0
	}
	return float64(s.wcet()) / float64(s.Period)
}

// sems returns the semaphores the spec accesses, in ascending ID.
func (s Spec) sems() []task.SemID {
	var out []task.SemID
	for _, seg := range s.Body {
		if seg.Kind == task.SegLock {
			out = append(out, seg.Sem)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// ErrNoFit is returned when the heuristics cannot place every task.
var ErrNoFit = errors.New("alloc: task set does not fit on the given processors")

// FirstFitRM binds tasks to numProcs processors by decreasing utilization,
// placing each on the first processor where the Liu-Layland bound still
// holds. Blocking is not considered at this stage; the caller verifies the
// final binding with the full analysis.
func FirstFitRM(specs []Spec, numProcs int) (map[task.ID]task.ProcID, error) {
	order := make([]Spec, len(specs))
	copy(order, specs)
	sort.SliceStable(order, func(i, j int) bool { return order[i].utilization() > order[j].utilization() })

	util := make([]float64, numProcs)
	count := make([]int, numProcs)
	binding := make(map[task.ID]task.ProcID, len(specs))
	for _, sp := range order {
		placed := false
		for p := 0; p < numProcs; p++ {
			if util[p]+sp.utilization() <= analysis.LiuLaylandBound(count[p]+1) {
				util[p] += sp.utilization()
				count[p]++
				binding[sp.ID] = task.ProcID(p)
				placed = true
				break
			}
		}
		if !placed {
			return nil, fmt.Errorf("%w: task %d (u=%.3f)", ErrNoFit, sp.ID, sp.utilization())
		}
	}
	return binding, nil
}

// ResourceAffinity binds tasks like FirstFitRM but first groups tasks that
// share semaphores and tries to place each group on one processor, turning
// would-be global semaphores into local ones (Section 6: "allocate tasks
// with a high degree of resource sharing to the same processor"). Groups
// that exceed a processor's capacity fall back to task-by-task first-fit.
func ResourceAffinity(specs []Spec, numProcs int) (map[task.ID]task.ProcID, error) {
	groups := groupBySharing(specs)
	// Sort groups by total utilization, largest first.
	sort.SliceStable(groups, func(i, j int) bool {
		return groupUtil(groups[i]) > groupUtil(groups[j])
	})

	util := make([]float64, numProcs)
	count := make([]int, numProcs)
	binding := make(map[task.ID]task.ProcID, len(specs))

	var leftovers []Spec
	for _, g := range groups {
		placed := false
		for p := 0; p < numProcs; p++ {
			if util[p]+groupUtil(g) <= analysis.LiuLaylandBound(count[p]+len(g)) {
				for _, sp := range g {
					binding[sp.ID] = task.ProcID(p)
				}
				util[p] += groupUtil(g)
				count[p] += len(g)
				placed = true
				break
			}
		}
		if !placed {
			leftovers = append(leftovers, g...)
		}
	}
	// Place leftovers individually.
	sort.SliceStable(leftovers, func(i, j int) bool { return leftovers[i].utilization() > leftovers[j].utilization() })
	for _, sp := range leftovers {
		placed := false
		for p := 0; p < numProcs; p++ {
			if util[p]+sp.utilization() <= analysis.LiuLaylandBound(count[p]+1) {
				util[p] += sp.utilization()
				count[p]++
				binding[sp.ID] = task.ProcID(p)
				placed = true
				break
			}
		}
		if !placed {
			return nil, fmt.Errorf("%w: task %d (u=%.3f)", ErrNoFit, sp.ID, sp.utilization())
		}
	}
	return binding, nil
}

// groupBySharing unions tasks into connected components of the
// resource-sharing graph.
func groupBySharing(specs []Spec) [][]Spec {
	parent := make(map[task.ID]task.ID, len(specs))
	var find func(task.ID) task.ID
	find = func(x task.ID) task.ID {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	union := func(a, b task.ID) { parent[find(a)] = find(b) }

	for _, sp := range specs {
		parent[sp.ID] = sp.ID
	}
	bySem := make(map[task.SemID][]task.ID)
	var semIDs []task.SemID
	for _, sp := range specs {
		for _, sem := range sp.sems() {
			if _, seen := bySem[sem]; !seen {
				semIDs = append(semIDs, sem)
			}
			bySem[sem] = append(bySem[sem], sp.ID)
		}
	}
	slices.Sort(semIDs)
	for _, sem := range semIDs {
		ids := bySem[sem]
		for i := 1; i < len(ids); i++ {
			union(ids[0], ids[i])
		}
	}
	byRoot := make(map[task.ID][]Spec)
	for _, sp := range specs {
		r := find(sp.ID)
		byRoot[r] = append(byRoot[r], sp)
	}
	var out [][]Spec
	var roots []task.ID
	for r := range byRoot {
		roots = append(roots, r)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
	for _, r := range roots {
		out = append(out, byRoot[r])
	}
	return out
}

func groupUtil(g []Spec) float64 {
	u := 0.0
	for _, sp := range g {
		u += sp.utilization()
	}
	return u
}

// Apply builds a System from specs and a binding.
func Apply(specs []Spec, binding map[task.ID]task.ProcID, numProcs int, sems []*task.Semaphore) (*task.System, error) {
	sys := task.NewSystem(numProcs)
	for _, sem := range sems {
		sys.AddSem(&task.Semaphore{ID: sem.ID, Name: sem.Name})
	}
	for _, sp := range specs {
		proc, ok := binding[sp.ID]
		if !ok {
			return nil, fmt.Errorf("alloc: no binding for task %d", sp.ID)
		}
		sys.AddTask(&task.Task{
			ID: sp.ID, Name: sp.Name, Proc: proc, Period: sp.Period, Body: sp.Body,
		})
	}
	task.AssignRateMonotonic(sys)
	if err := sys.Validate(task.ValidateOptions{}); err != nil {
		return nil, err
	}
	return sys, nil
}

// MinProcessors implements the Section 6 allocation objective: "achieve a
// schedulable configuration with a small number of processors". It tries
// processor counts from 1 to maxProcs; for each count it builds a
// resource-affinity binding (falling back to plain first-fit when
// affinity cannot place the set) and asks the evaluate callback — which
// typically runs the full blocking-aware schedulability analysis —
// whether the resulting system is acceptable. It returns the first count
// that works, its binding, and the system it built.
func MinProcessors(
	specs []Spec,
	sems []*task.Semaphore,
	maxProcs int,
	evaluate func(sys *task.System) (bool, error),
) (int, map[task.ID]task.ProcID, *task.System, error) {
	if maxProcs <= 0 {
		return 0, nil, nil, errors.New("alloc: maxProcs must be positive")
	}
	for n := 1; n <= maxProcs; n++ {
		for _, bind := range []func([]Spec, int) (map[task.ID]task.ProcID, error){ResourceAffinity, FirstFitRM} {
			binding, err := bind(specs, n)
			if err != nil {
				continue
			}
			sys, err := Apply(specs, binding, n, sems)
			if err != nil {
				continue
			}
			ok, err := evaluate(sys)
			if err != nil {
				return 0, nil, nil, err
			}
			if ok {
				return n, binding, sys, nil
			}
		}
	}
	return 0, nil, nil, fmt.Errorf("%w: no schedulable binding within %d processors", ErrNoFit, maxProcs)
}

// SharingGraphDOT renders the task/resource sharing graph in Graphviz DOT
// form: tasks as ellipses, semaphores as boxes, an edge per access. The
// connected components are exactly the groups ResourceAffinity tries to
// co-locate, so the picture explains a binding at a glance.
func SharingGraphDOT(specs []Spec, sems []*task.Semaphore) string {
	var b strings.Builder
	b.WriteString("graph sharing {\n")
	b.WriteString("  rankdir=LR;\n")
	names := make(map[task.SemID]string, len(sems))
	for _, sem := range sems {
		name := sem.Name
		if name == "" {
			name = fmt.Sprintf("S%d", sem.ID)
		}
		names[sem.ID] = name
		fmt.Fprintf(&b, "  %q [shape=box];\n", name)
	}
	for _, sp := range specs {
		label := sp.Name
		if label == "" {
			label = fmt.Sprintf("T%d", sp.ID)
		}
		fmt.Fprintf(&b, "  %q [shape=ellipse];\n", label)
		for _, sem := range sp.sems() {
			name, ok := names[sem]
			if !ok {
				name = fmt.Sprintf("S%d", sem)
			}
			fmt.Fprintf(&b, "  %q -- %q;\n", label, name)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// GlobalRMResult reports a dynamic-binding simulation.
type GlobalRMResult struct {
	Horizon    int
	Misses     int
	FirstMiss  int // tick of the first deadline miss, -1 if none
	MissedTask task.ID
}

// SimulateGlobalRM runs the independent task set of sys (semaphores are
// ignored; the Dhall construction has none) under global preemptive
// rate-monotonic scheduling with dynamic binding: at every tick the
// NumProcs highest-priority ready jobs execute, on any processor. This is
// the discipline Section 3.2 shows can miss deadlines at vanishing
// utilization.
func SimulateGlobalRM(sys *task.System, horizon int) GlobalRMResult {
	type job struct {
		t        *task.Task
		left     int
		deadline int
	}
	res := GlobalRMResult{Horizon: horizon, FirstMiss: -1}
	var active []*job
	nextRel := make([]int, len(sys.Tasks))
	for i, t := range sys.Tasks {
		nextRel[i] = t.Offset
	}
	for now := 0; now < horizon; now++ {
		for i, t := range sys.Tasks {
			for nextRel[i] <= now {
				active = append(active, &job{t: t, left: t.WCET(), deadline: nextRel[i] + t.RelativeDeadline()})
				nextRel[i] += t.Period
			}
		}
		sort.SliceStable(active, func(a, b int) bool { return active[a].t.Priority > active[b].t.Priority })
		running := sys.NumProcs
		if len(active) < running {
			running = len(active)
		}
		for k := 0; k < running; k++ {
			active[k].left--
		}
		var still []*job
		for _, j := range active {
			if j.left <= 0 {
				continue
			}
			if now+1 > j.deadline {
				res.Misses++
				if res.FirstMiss < 0 {
					res.FirstMiss = now + 1
					res.MissedTask = j.t.ID
				}
				continue // drop the late job
			}
			still = append(still, j)
		}
		active = still
	}
	return res
}
