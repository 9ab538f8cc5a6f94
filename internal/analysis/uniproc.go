package analysis

import (
	"fmt"
	"math"

	"mpcp/internal/task"
)

// PCPBounds computes the uniprocessor priority ceiling protocol blocking
// bound the paper reviews in Section 2 (from [10]): a job that never
// suspends is blocked by at most one critical section of a lower-priority
// job whose semaphore ceiling is at or above its priority. Every
// semaphore must be local: a global one is an error, since the bound has
// no term for global critical sections. On an all-local system the
// composed analysis is exactly this bound: factor 1 with one
// opportunity. Useful for the n=1 degenerate case the shared-memory
// protocol reduces to, and as the blocking term for processors with no
// global sharing.
func PCPBounds(sys *task.System) (map[task.ID]*Bound, error) {
	for _, sem := range sys.Sems {
		if sem.Global {
			return nil, fmt.Errorf("analysis: semaphore %d is global; use the MPCP or DPCP analysis", sem.ID)
		}
	}
	return Composed.Bounds(sys, Options{})
}

// HyperbolicTest is the Bini-Buttazzo refinement of the Liu-Layland
// utilization test, extended with blocking the same way Theorem 3
// extends the original: for each task i (by descending priority on its
// processor),
//
//	(U_i + B_i/T_i + 1) * Π_{j<i} (U_j + 1) <= 2.
//
// As in Theorem 3, sporadic tasks are charged at their worst-case rate:
// U_j = C_j/T_j and B_i/T_i divide by the minimum interarrival. It
// admits strictly more task sets than Theorem 3 while remaining
// sufficient; the library offers it as a sharper alternative.
func HyperbolicTest(sys *task.System, bounds map[task.ID]*Bound) (bool, map[task.ID]bool, error) {
	if !sys.Validated() {
		return false, nil, ErrNotValidated
	}
	perTask := make(map[task.ID]bool, len(sys.Tasks))
	all := true
	for p := 0; p < sys.NumProcs; p++ {
		tasks := sys.TasksOn(task.ProcID(p))
		prod := 1.0
		for _, ti := range tasks {
			b := 0
			if bd := bounds[ti.ID]; bd != nil {
				b = bd.Total
			}
			t := float64(ti.EffectiveMinInterarrival())
			u := float64(ti.WCET()) / t
			lhs := (u + float64(b)/t + 1) * prod
			ok := lhs <= 2+1e-12
			perTask[ti.ID] = ok
			if !ok {
				all = false
			}
			prod *= u + 1
		}
	}
	return all, perTask, nil
}

// LiuLaylandBound returns n(2^{1/n}-1), the least upper bound on
// schedulable utilization for n tasks under rate-monotonic scheduling
// (about 69% as n grows, the figure Section 3.2 quotes for static
// binding).
func LiuLaylandBound(n int) float64 {
	if n >= 0 && n < len(liuLayland) {
		return liuLayland[n]
	}
	return liuLaylandBound(n)
}

// liuLayland holds LiuLaylandBound for the task counts a processor
// usually has, so the schedulability tests call no math.Pow per task.
var liuLayland = func() (t [65]float64) {
	for n := range t {
		t[n] = liuLaylandBound(n)
	}
	return t
}()

func liuLaylandBound(n int) float64 {
	if n <= 0 {
		return 1
	}
	f := float64(n)
	return f * (math.Pow(2, 1/f) - 1)
}
