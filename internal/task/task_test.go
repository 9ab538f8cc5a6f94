package task

import (
	"errors"
	"slices"
	"testing"
	"testing/quick"
)

func validSystem() *System {
	sys := NewSystem(2)
	sys.AddSem(&Semaphore{ID: 1, Name: "L"})
	sys.AddSem(&Semaphore{ID: 2, Name: "G"})
	sys.AddTask(&Task{
		ID: 1, Proc: 0, Period: 10, Priority: 2,
		Body: []Segment{Compute(1), Lock(1), Compute(2), Unlock(1), Lock(2), Compute(1), Unlock(2)},
	})
	sys.AddTask(&Task{
		ID: 2, Proc: 1, Period: 20, Priority: 1,
		Body: []Segment{Lock(2), Compute(3), Unlock(2)},
	})
	return sys
}

func TestValidateDerivesGlobality(t *testing.T) {
	sys := validSystem()
	if err := sys.Validate(ValidateOptions{}); err != nil {
		t.Fatalf("validate: %v", err)
	}
	if sys.SemByID(1).Global {
		t.Error("sem 1 accessed from one processor should be local")
	}
	if !sys.SemByID(2).Global {
		t.Error("sem 2 accessed from two processors should be global")
	}
}

func TestCriticalSectionExtraction(t *testing.T) {
	sys := validSystem()
	if err := sys.Validate(ValidateOptions{}); err != nil {
		t.Fatalf("validate: %v", err)
	}
	css := sys.CriticalSections(1)
	if len(css) != 2 {
		t.Fatalf("task 1 critical sections = %d, want 2", len(css))
	}
	if css[0].Sem != 1 || css[0].Duration != 2 || !css[0].Outermost || css[0].Global {
		t.Errorf("cs[0] = %+v, want local sem 1 duration 2 outermost", css[0])
	}
	if css[1].Sem != 2 || css[1].Duration != 1 || !css[1].Global {
		t.Errorf("cs[1] = %+v, want global sem 2 duration 1", css[1])
	}
	if g := sys.GlobalSections(1); len(g) != 1 || g[0].Sem != 2 {
		t.Errorf("GlobalSections = %+v", g)
	}
	if l := sys.LocalSections(1); len(l) != 1 || l[0].Sem != 1 {
		t.Errorf("LocalSections = %+v", l)
	}
}

func TestNestedSections(t *testing.T) {
	sys := NewSystem(1)
	sys.AddSem(&Semaphore{ID: 1})
	sys.AddSem(&Semaphore{ID: 2})
	sys.AddTask(&Task{
		ID: 1, Proc: 0, Period: 10, Priority: 1,
		Body: []Segment{Lock(1), Compute(1), Lock(2), Compute(2), Unlock(2), Compute(1), Unlock(1)},
	})
	if err := sys.Validate(ValidateOptions{}); err != nil {
		t.Fatalf("validate: %v", err)
	}
	css := sys.CriticalSections(1)
	if len(css) != 2 {
		t.Fatalf("len = %d, want 2 (inner listed first)", len(css))
	}
	inner, outer := css[0], css[1]
	if inner.Sem != 2 || inner.Duration != 2 || inner.Outermost {
		t.Errorf("inner = %+v", inner)
	}
	if outer.Sem != 1 || outer.Duration != 4 || !outer.Outermost || !outer.Nested {
		t.Errorf("outer = %+v (duration must include nested compute)", outer)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		prep func() *System
		want error
	}{
		{"no procs", func() *System { return NewSystem(0) }, ErrNoProcs},
		{"no tasks", func() *System { return NewSystem(1) }, ErrNoTasks},
		{"dup task id", func() *System {
			s := NewSystem(1)
			s.AddTask(&Task{ID: 1, Proc: 0, Period: 5, Priority: 1, Body: []Segment{Compute(1)}})
			s.AddTask(&Task{ID: 1, Proc: 0, Period: 5, Priority: 2, Body: []Segment{Compute(1)}})
			return s
		}, ErrDuplicateTaskID},
		{"dup priority", func() *System {
			s := NewSystem(1)
			s.AddTask(&Task{ID: 1, Proc: 0, Period: 5, Priority: 1, Body: []Segment{Compute(1)}})
			s.AddTask(&Task{ID: 2, Proc: 0, Period: 5, Priority: 1, Body: []Segment{Compute(1)}})
			return s
		}, ErrDuplicatePriority},
		{"bad binding", func() *System {
			s := NewSystem(1)
			s.AddTask(&Task{ID: 1, Proc: 3, Period: 5, Priority: 1, Body: []Segment{Compute(1)}})
			return s
		}, ErrBadBinding},
		{"bad period", func() *System {
			s := NewSystem(1)
			s.AddTask(&Task{ID: 1, Proc: 0, Period: 0, Priority: 1, Body: []Segment{Compute(1)}})
			return s
		}, ErrBadPeriod},
		{"unknown sem", func() *System {
			s := NewSystem(1)
			s.AddTask(&Task{ID: 1, Proc: 0, Period: 5, Priority: 1, Body: []Segment{Lock(9), Compute(1), Unlock(9)}})
			return s
		}, ErrUnknownSemaphore},
		{"unbalanced", func() *System {
			s := NewSystem(1)
			s.AddSem(&Semaphore{ID: 1})
			s.AddTask(&Task{ID: 1, Proc: 0, Period: 5, Priority: 1, Body: []Segment{Unlock(1)}})
			return s
		}, ErrUnbalancedLocks},
		{"self deadlock", func() *System {
			s := NewSystem(1)
			s.AddSem(&Semaphore{ID: 1})
			s.AddTask(&Task{ID: 1, Proc: 0, Period: 5, Priority: 1,
				Body: []Segment{Lock(1), Lock(1), Unlock(1), Unlock(1)}})
			return s
		}, ErrSelfDeadlock},
		{"held at end", func() *System {
			s := NewSystem(1)
			s.AddSem(&Semaphore{ID: 1})
			s.AddTask(&Task{ID: 1, Proc: 0, Period: 5, Priority: 1, Body: []Segment{Lock(1), Compute(1)}})
			return s
		}, ErrHeldAtCompletion},
		{"negative duration", func() *System {
			s := NewSystem(1)
			s.AddTask(&Task{ID: 1, Proc: 0, Period: 5, Priority: 1, Body: []Segment{Compute(-1)}})
			return s
		}, ErrNegativeDuration},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.prep().Validate(ValidateOptions{})
			if !errors.Is(err, c.want) {
				t.Errorf("Validate = %v, want %v", err, c.want)
			}
		})
	}
}

// TestValidateFirstFailureWins pins which error Validate reports when a
// task set has several faults: the first task in system order with any
// fault, and for that task a repeated ID before a repeated priority
// before a bad binding or period. A repeated priority names the first
// task that has it.
func TestValidateFirstFailureWins(t *testing.T) {
	type spec struct {
		id     ID
		proc   ProcID
		period int
		prio   int
	}
	cases := []struct {
		name  string
		tasks []spec
		want  string // "" for a valid system
	}{
		{"repeated id", []spec{{3, 0, 5, 1}, {1, 0, 5, 2}, {3, 0, 5, 3}}, "duplicate task id: 3"},
		{"earliest repeated id", []spec{{5, 0, 5, 1}, {2, 0, 5, 2}, {5, 0, 5, 3}, {2, 0, 5, 4}}, "duplicate task id: 5"},
		{"repeated priority", []spec{{1, 0, 5, 5}, {2, 0, 5, 7}, {3, 0, 5, 5}, {4, 0, 5, 7}},
			"duplicate task priority: tasks 1 and 3 share priority 5"},
		{"earliest repeated priority", []spec{{1, 0, 5, 5}, {2, 0, 5, 7}, {3, 0, 5, 7}, {4, 0, 5, 5}},
			"duplicate task priority: tasks 2 and 3 share priority 7"},
		{"repeated rank", []spec{{1, 0, 5, 2}, {2, 0, 5, 1}, {3, 0, 5, 2}},
			"duplicate task priority: tasks 1 and 3 share priority 2"},
		{"binding before priority", []spec{{1, 0, 5, 1}, {2, 4, 5, 2}, {3, 0, 5, 1}},
			"task bound to nonexistent processor: task 2 on processor 4 of 1"},
		{"priority before id", []spec{{1, 0, 5, 1}, {2, 0, 5, 1}, {1, 0, 5, 3}},
			"duplicate task priority: tasks 1 and 2 share priority 1"},
		{"id before priority", []spec{{1, 0, 5, 1}, {1, 0, 5, 1}}, "duplicate task id: 1"},
		{"priority before period", []spec{{1, 0, 5, 9}, {2, 0, 0, 9}},
			"duplicate task priority: tasks 1 and 2 share priority 9"},
		{"decreasing ids", []spec{{3, 0, 5, 30}, {2, 0, 5, 10}, {1, 0, 5, 20}}, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := NewSystem(1)
			for _, sp := range c.tasks {
				s.AddTask(&Task{ID: sp.id, Proc: sp.proc, Period: sp.period, Priority: sp.prio, Body: []Segment{Compute(1)}})
			}
			err := s.Validate(ValidateOptions{})
			got := ""
			if err != nil {
				got = err.Error()
			}
			if got != c.want {
				t.Fatalf("Validate = %q, want %q", got, c.want)
			}
			if err != nil {
				return
			}
			var prios []int
			for _, tk := range s.TasksOn(0) {
				prios = append(prios, tk.Priority)
			}
			if !slices.IsSortedFunc(prios, func(a, b int) int { return b - a }) {
				t.Errorf("TasksOn priorities %v, want descending", prios)
			}
		})
	}
}

func TestNestedGlobalRejected(t *testing.T) {
	build := func() *System {
		sys := NewSystem(2)
		sys.AddSem(&Semaphore{ID: 1}) // global (used from both procs)
		sys.AddSem(&Semaphore{ID: 2})
		sys.AddTask(&Task{ID: 1, Proc: 0, Period: 10, Priority: 2,
			Body: []Segment{Lock(1), Compute(1), Lock(2), Compute(1), Unlock(2), Unlock(1)}})
		sys.AddTask(&Task{ID: 2, Proc: 1, Period: 20, Priority: 1,
			Body: []Segment{Lock(1), Compute(1), Unlock(1)}})
		return sys
	}
	if err := build().Validate(ValidateOptions{}); !errors.Is(err, ErrNestedGlobal) {
		t.Errorf("Validate = %v, want ErrNestedGlobal", err)
	}
	if err := build().Validate(ValidateOptions{AllowNestedGlobal: true}); err != nil {
		t.Errorf("Validate with AllowNestedGlobal = %v, want nil", err)
	}
}

func TestWCETAndUtilization(t *testing.T) {
	tk := &Task{Period: 10, Body: []Segment{Compute(2), Lock(1), Compute(3), Unlock(1)}}
	if got := tk.WCET(); got != 5 {
		t.Errorf("WCET = %d, want 5", got)
	}
	if got := tk.Utilization(); got != 0.5 {
		t.Errorf("Utilization = %v, want 0.5", got)
	}
	if got := tk.RelativeDeadline(); got != 10 {
		t.Errorf("RelativeDeadline = %d, want period 10", got)
	}
	tk.Deadline = 8
	if got := tk.RelativeDeadline(); got != 8 {
		t.Errorf("RelativeDeadline = %d, want 8", got)
	}
}

func TestHyperperiod(t *testing.T) {
	sys := NewSystem(1)
	sys.AddTask(&Task{ID: 1, Proc: 0, Period: 4, Priority: 3, Body: []Segment{Compute(1)}})
	sys.AddTask(&Task{ID: 2, Proc: 0, Period: 6, Priority: 2, Body: []Segment{Compute(1)}})
	sys.AddTask(&Task{ID: 3, Proc: 0, Period: 10, Priority: 1, Body: []Segment{Compute(1)}})
	if got := sys.Hyperperiod(); got != 60 {
		t.Errorf("Hyperperiod = %d, want 60", got)
	}
}

func TestAssignRateMonotonic(t *testing.T) {
	sys := NewSystem(1)
	sys.AddTask(&Task{ID: 1, Proc: 0, Period: 30, Body: []Segment{Compute(1)}})
	sys.AddTask(&Task{ID: 2, Proc: 0, Period: 10, Body: []Segment{Compute(1)}})
	sys.AddTask(&Task{ID: 3, Proc: 0, Period: 20, Body: []Segment{Compute(1)}})
	AssignRateMonotonic(sys)
	if p1, p2, p3 := sys.TaskByID(1).Priority, sys.TaskByID(2).Priority, sys.TaskByID(3).Priority; !(p2 > p3 && p3 > p1) {
		t.Errorf("priorities = %d %d %d, want shortest period highest", p1, p2, p3)
	}
}

func TestAssignRateMonotonicTieBreak(t *testing.T) {
	sys := NewSystem(1)
	sys.AddTask(&Task{ID: 5, Proc: 0, Period: 10, Body: []Segment{Compute(1)}})
	sys.AddTask(&Task{ID: 3, Proc: 0, Period: 10, Body: []Segment{Compute(1)}})
	AssignRateMonotonic(sys)
	if !(sys.TaskByID(3).Priority > sys.TaskByID(5).Priority) {
		t.Error("equal periods must break ties by lower task ID")
	}
}

func TestIndexUsersSortedByPriority(t *testing.T) {
	sys := validSystem()
	sys.TaskByID(2).Priority = 3
	if err := sys.Validate(ValidateOptions{}); err != nil {
		t.Fatal(err)
	}
	// Semaphore 2 (position 1) is used by tasks 1 and 2 (positions 0 and
	// 1); task 2 now has the higher priority.
	if users := sys.Index().Users(1); len(users) != 2 || users[0] != 1 || users[1] != 0 {
		t.Errorf("Users(1) = %v, want positions [1 0] by descending priority", users)
	}
	if users := sys.Index().Users(0); len(users) != 1 || users[0] != 0 {
		t.Errorf("Users(0) = %v, want position [0]", users)
	}
}

func TestHighestPriority(t *testing.T) {
	sys := validSystem()
	if got := sys.HighestPriority(); got != 2 {
		t.Errorf("HighestPriority = %d, want 2", got)
	}
}

// Property: for any body built from balanced sections, validation passes
// and the extracted critical-section durations sum to the compute inside
// sections.
func TestQuickBalancedBodiesValidate(t *testing.T) {
	f := func(durs []uint8) bool {
		sys := NewSystem(1)
		var body []Segment
		inside := 0
		for i, d := range durs {
			if i >= 6 {
				break
			}
			sem := SemID(i + 1)
			sys.AddSem(&Semaphore{ID: sem})
			dur := int(d % 17)
			body = append(body, Lock(sem), Compute(dur), Unlock(sem), Compute(1))
			inside += dur
		}
		if len(body) == 0 {
			body = []Segment{Compute(1)}
		}
		sys.AddTask(&Task{ID: 1, Proc: 0, Period: 1000, Priority: 1, Body: body})
		if err := sys.Validate(ValidateOptions{}); err != nil {
			return false
		}
		total := 0
		for _, cs := range sys.CriticalSections(1) {
			total += cs.Duration
		}
		return total == inside
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAssignDeadlineMonotonic(t *testing.T) {
	sys := NewSystem(1)
	sys.AddTask(&Task{ID: 1, Proc: 0, Period: 100, Deadline: 50, Body: []Segment{Compute(1)}})
	sys.AddTask(&Task{ID: 2, Proc: 0, Period: 80, Body: []Segment{Compute(1)}}) // deadline = 80
	sys.AddTask(&Task{ID: 3, Proc: 0, Period: 200, Deadline: 30, Body: []Segment{Compute(1)}})
	AssignDeadlineMonotonic(sys)
	p1, p2, p3 := sys.TaskByID(1).Priority, sys.TaskByID(2).Priority, sys.TaskByID(3).Priority
	if !(p3 > p1 && p1 > p2) {
		t.Errorf("priorities = %d %d %d, want deadline order 3 > 1 > 2", p1, p2, p3)
	}
}

func TestClone(t *testing.T) {
	sys := validSystem()
	if err := sys.Validate(ValidateOptions{}); err != nil {
		t.Fatal(err)
	}
	c := sys.Clone(4)
	if c.NumProcs != 4 || len(c.Tasks) != len(sys.Tasks) || len(c.Sems) != len(sys.Sems) {
		t.Fatalf("shape changed: %d procs %d tasks %d sems", c.NumProcs, len(c.Tasks), len(c.Sems))
	}
	if c.Validated() {
		t.Error("clone must be returned unvalidated")
	}
	// Mutating the clone's body must not leak into the original.
	c.Tasks[0].Body[0] = Compute(99)
	if sys.Tasks[0].Body[0].Duration == 99 {
		t.Error("clone shares body storage with the original")
	}
	if err := c.Validate(ValidateOptions{}); err != nil {
		t.Fatalf("clone validate: %v", err)
	}
}

func TestSystemAccessors(t *testing.T) {
	sys := validSystem()
	if err := sys.Validate(ValidateOptions{}); err != nil {
		t.Fatal(err)
	}
	ix := sys.Index()
	if p := ix.LowestAccessor(1); p != 0 {
		t.Errorf("LowestAccessor of semaphore 2 = %d, want 0", p)
	}
	if p := ix.LowestAccessor(0); p != 0 {
		t.Errorf("LowestAccessor of semaphore 1 = %d, want 0", p)
	}
	on0 := sys.TasksOn(0)
	if len(on0) != 1 || on0[0].ID != 1 {
		t.Errorf("TasksOn(0) = %v", on0)
	}
	if len(on0) != cap(on0) {
		t.Errorf("TasksOn(0) has spare capacity %d: an append would write into the index", cap(on0)-len(on0))
	}
	if got := sys.TaskByID(99); got != nil {
		t.Errorf("TaskByID(99) = %v, want nil", got)
	}
	if got := sys.SemByID(99); got != nil {
		t.Errorf("SemByID(99) = %v, want nil", got)
	}
	// Utilizations: task1 C=4 T=10, task2 C=3 T=20.
	if got := sys.Utilization(); got != 0.4+0.15 {
		t.Errorf("Utilization = %v, want 0.55", got)
	}
	if got := sys.ProcUtilization(0); got != 0.4 {
		t.Errorf("ProcUtilization(0) = %v, want 0.4", got)
	}
	if got := sys.MaxOffset(); got != 0 {
		t.Errorf("MaxOffset = %v, want 0", got)
	}
	sys.TaskByID(2).Offset = 7
	if got := sys.MaxOffset(); got != 7 {
		t.Errorf("MaxOffset = %v, want 7", got)
	}
}

func TestSegmentKindString(t *testing.T) {
	cases := map[SegmentKind]string{
		SegCompute:      "compute",
		SegLock:         "lock",
		SegUnlock:       "unlock",
		SegmentKind(42): "SegmentKind(42)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestZeroPeriodUtilization(t *testing.T) {
	tk := &Task{Body: []Segment{Compute(5)}}
	if got := tk.Utilization(); got != 0 {
		t.Errorf("zero-period utilization = %v", got)
	}
}

// TestFailedRevalidate checks that a Validate that fails leaves the
// system unvalidated and without an index, even when an earlier one
// succeeded, and that a later Validate rebuilds the index in full.
func TestFailedRevalidate(t *testing.T) {
	sys := validSystem()
	if err := sys.Validate(ValidateOptions{}); err != nil {
		t.Fatal(err)
	}
	body := sys.Tasks[0].Body
	sys.Tasks[0].Body = append(slices.Clone(body), Unlock(2))
	if err := sys.Validate(ValidateOptions{}); !errors.Is(err, ErrUnbalancedLocks) {
		t.Fatalf("Validate of an unbalanced body = %v, want %v", err, ErrUnbalancedLocks)
	}
	if sys.Validated() {
		t.Error("Validated() is true after a failed Validate")
	}
	if sys.Index() != nil || sys.CriticalSections(1) != nil || sys.TasksOn(0) != nil {
		t.Error("a failed Validate left an index")
	}

	sys.Tasks[0].Body = body
	if err := sys.Validate(ValidateOptions{}); err != nil {
		t.Fatal(err)
	}
	fresh := validSystem()
	if err := fresh.Validate(ValidateOptions{}); err != nil {
		t.Fatal(err)
	}
	for i := range sys.Tasks {
		if got, want := sys.Index().Sections(i), fresh.Index().Sections(i); !slices.Equal(got, want) {
			t.Errorf("task %d sections after revalidation = %v, want %v", i, got, want)
		}
	}
	for k := range sys.Sems {
		if got, want := sys.Index().Users(k), fresh.Index().Users(k); !slices.Equal(got, want) {
			t.Errorf("semaphore %d users after revalidation = %v, want %v", k, got, want)
		}
	}
}
