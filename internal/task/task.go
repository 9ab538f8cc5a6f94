// Package task defines the workload model of the paper: periodic tasks
// statically bound to processors (Section 3.2), whose jobs are sequences of
// compute segments interleaved with P()/V() operations on binary semaphores
// (Section 3.1). It also derives the structural facts every protocol and
// every analysis needs: which semaphores are global, which critical
// sections belong to which task, and the priority ceilings of Section 4.
package task

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
)

// ID identifies a task within a System.
type ID int

// SemID identifies a semaphore within a System.
type SemID int

// ProcID identifies a processor. Processors are numbered 0..NumProcs-1.
type ProcID int

// SegmentKind discriminates the instructions in a job body.
type SegmentKind int

// Segment kinds. Compute consumes time; Lock and Unlock are the indivisible
// P(S) and V(S) operations of Section 3.1 and consume no simulated time
// themselves (queueing overhead is modeled separately by internal/shmem).
const (
	SegCompute SegmentKind = iota + 1
	SegLock
	SegUnlock
)

func (k SegmentKind) String() string {
	switch k {
	case SegCompute:
		return "compute"
	case SegLock:
		return "lock"
	case SegUnlock:
		return "unlock"
	default:
		return fmt.Sprintf("SegmentKind(%d)", int(k))
	}
}

// Segment is one instruction of a job body.
type Segment struct {
	Kind     SegmentKind
	Duration int   // ticks; meaningful only for SegCompute
	Sem      SemID // meaningful only for SegLock / SegUnlock
}

// Compute returns a compute segment of d ticks.
func Compute(d int) Segment { return Segment{Kind: SegCompute, Duration: d} }

// Lock returns a P(s) segment.
func Lock(s SemID) Segment { return Segment{Kind: SegLock, Sem: s} }

// Unlock returns a V(s) segment.
func Unlock(s SemID) Segment { return Segment{Kind: SegUnlock, Sem: s} }

// Task is a periodic task statically bound to one processor. Priority is a
// base (assigned) priority where a numerically larger value means higher
// priority; distinct tasks must have distinct priorities so that the
// system-wide ordering P1 > P2 > ... of Section 3.1 is well defined.
type Task struct {
	ID       ID
	Name     string
	Proc     ProcID
	Period   int
	Deadline int // relative deadline; 0 means Deadline = Period
	Offset   int // arrival time of the first job
	Priority int // base priority, larger = higher
	Body     []Segment

	// MinInterarrival switches the task to the sporadic model: successive
	// arrivals are separated by a seed-derived gap drawn uniformly from
	// [MinInterarrival, 2*Period-MinInterarrival], so Period remains the
	// mean rate and the analyses' worst case is the minimum separation.
	// 0 means strictly periodic (gap = Period exactly);
	// MinInterarrival == Period degenerates to the periodic sequence too.
	MinInterarrival int
	// Jitter delays each job's release after its arrival by a seed-derived
	// amount drawn uniformly from [0, Jitter]. The absolute deadline stays
	// anchored to the arrival, so jitter eats into the job's slack exactly
	// as in the classic jitter-aware response-time analysis.
	Jitter int
}

// WCET returns the task's computation requirement C_i: the sum of its
// compute segments.
func (t *Task) WCET() int {
	total := 0
	for _, seg := range t.Body {
		if seg.Kind == SegCompute {
			total += seg.Duration
		}
	}
	return total
}

// RelativeDeadline returns the task's relative deadline, defaulting to its
// period as in the rate-monotonic model of [6].
func (t *Task) RelativeDeadline() int {
	if t.Deadline > 0 {
		return t.Deadline
	}
	return t.Period
}

// IsSporadic reports whether the task uses the sporadic release model
// (a positive minimum interarrival time).
func (t *Task) IsSporadic() bool { return t.MinInterarrival > 0 }

// EffectiveMinInterarrival returns the minimum separation between
// successive arrivals: MinInterarrival for sporadic tasks, Period for
// periodic ones. This is the denominator of every interference and
// blocking-frequency term in the jitter-aware analyses.
func (t *Task) EffectiveMinInterarrival() int {
	if t.MinInterarrival > 0 {
		return t.MinInterarrival
	}
	return t.Period
}

// HasReleaseVariance reports whether the task's release sequence depends
// on seed-derived draws: sporadic with a minimum interarrival strictly
// below the period, or nonzero jitter. Variance-free tasks release on the
// fixed periodic calendar regardless of seed.
func (t *Task) HasReleaseVariance() bool {
	return (t.MinInterarrival > 0 && t.MinInterarrival < t.Period) || t.Jitter > 0
}

// Utilization returns C_i / T_i.
func (t *Task) Utilization() float64 {
	if t.Period == 0 {
		return 0
	}
	return float64(t.WCET()) / float64(t.Period)
}

// Semaphore is a binary semaphore guarding a shared resource. Global is
// derived during System validation: a semaphore is global exactly when
// tasks bound to more than one processor access it (Section 4.2).
type Semaphore struct {
	ID     SemID
	Name   string
	Global bool
}

// CriticalSection describes one critical section of a task: the semaphore,
// the sum of compute time strictly inside it (including nested sections),
// and its nesting structure.
type CriticalSection struct {
	Task      ID
	Sem       SemID
	SemPos    int  // position of Sem in System.Sems
	Duration  int  // compute ticks between the Lock and its matching Unlock
	Outermost bool // not nested inside another critical section
	Nested    bool // contains another critical section
	Global    bool // guarded by a global semaphore
	StartSeg  int  // index of the Lock segment in the task body
	EndSeg    int  // index of the matching Unlock segment
}

// System is a complete multiprocessor workload: the processor count, the
// task set and the semaphores they share. Build one with NewSystem, add
// tasks and semaphores, then call Validate (or use the Builder in the
// public API package) before handing it to a simulator or an analysis.
type System struct {
	NumProcs int
	Tasks    []*Task
	Sems     []*Semaphore

	// ReleaseSeed keys the deterministic sporadic-gap and jitter draws of
	// every task in the system. Two runs of the same system with the same
	// seed produce byte-identical release sequences; it is irrelevant (and
	// ignored) when no task has release variance.
	ReleaseSeed int64

	// Derived by Validate: ix is nil unless the last Validate
	// succeeded; spare holds the storage of an index a failed Validate
	// dropped, for the next one to rebuild in.
	ix        *Index
	spare     *Index
	validated bool
}

// NewSystem returns an empty system with the given number of processors.
func NewSystem(numProcs int) *System {
	return &System{NumProcs: numProcs}
}

// Clone deep-copies the system onto numProcs processors (pass s.NumProcs
// to keep the count). Task bodies are copied, so mutations to the clone
// never leak back. The clone is returned unvalidated: callers adjust it
// and run Validate themselves.
func (s *System) Clone(numProcs int) *System {
	out := NewSystem(numProcs)
	out.ReleaseSeed = s.ReleaseSeed
	for _, sem := range s.Sems {
		out.AddSem(&Semaphore{ID: sem.ID, Name: sem.Name})
	}
	for _, t := range s.Tasks {
		body := make([]Segment, len(t.Body))
		copy(body, t.Body)
		out.AddTask(&Task{
			ID:              t.ID,
			Name:            t.Name,
			Proc:            t.Proc,
			Period:          t.Period,
			Deadline:        t.Deadline,
			Offset:          t.Offset,
			Priority:        t.Priority,
			Body:            body,
			MinInterarrival: t.MinInterarrival,
			Jitter:          t.Jitter,
		})
	}
	return out
}

// AddTask appends a task and returns it for further configuration.
func (s *System) AddTask(t *Task) *Task {
	s.Tasks = append(s.Tasks, t)
	s.validated = false
	return t
}

// AddSem appends a semaphore and returns it.
func (s *System) AddSem(sem *Semaphore) *Semaphore {
	s.Sems = append(s.Sems, sem)
	s.validated = false
	return sem
}

// TaskByID returns the task with the given ID, or nil.
func (s *System) TaskByID(id ID) *Task {
	for _, t := range s.Tasks {
		if t.ID == id {
			return t
		}
	}
	return nil
}

// SemByID returns the semaphore with the given ID, or nil.
func (s *System) SemByID(id SemID) *Semaphore {
	for _, sem := range s.Sems {
		if sem.ID == id {
			return sem
		}
	}
	return nil
}

// Validation errors that callers may want to match.
var (
	ErrNoTasks            = errors.New("system has no tasks")
	ErrNoProcs            = errors.New("system has no processors")
	ErrDuplicateTaskID    = errors.New("duplicate task id")
	ErrDuplicateSemID     = errors.New("duplicate semaphore id")
	ErrDuplicatePriority  = errors.New("duplicate task priority")
	ErrBadBinding         = errors.New("task bound to nonexistent processor")
	ErrBadPeriod          = errors.New("task period must be positive")
	ErrUnknownSemaphore   = errors.New("body references unknown semaphore")
	ErrUnbalancedLocks    = errors.New("unbalanced lock/unlock in body")
	ErrSelfDeadlock       = errors.New("body locks a semaphore it already holds")
	ErrNestedGlobal       = errors.New("nested global critical section")
	ErrNegativeDuration   = errors.New("compute segment with negative duration")
	ErrHeldAtCompletion   = errors.New("semaphore still held at end of body")
	ErrNegativeOffset     = errors.New("task offset must be non-negative")
	ErrOffsetTooLarge     = errors.New("task offset beyond hyperperiod")
	ErrNegativeJitter     = errors.New("task jitter must be non-negative")
	ErrJitterTooLarge     = errors.New("task jitter exceeds period")
	ErrBadMinInterarrival = errors.New("sporadic minimum interarrival out of range")
	ErrMinBelowCost       = errors.New("sporadic minimum interarrival below task cost")
)

// ValidateOptions tunes validation. The paper's base protocol forbids
// global critical sections from nesting or being nested (Section 4.2);
// AllowNestedGlobal relaxes that for the Section 5.1 nested-gcs study,
// in which case callers are responsible for a deadlock-free partial order.
type ValidateOptions struct {
	AllowNestedGlobal bool
}

// Validate checks structural well-formedness, derives which semaphores are
// global, extracts every task's critical sections and builds the system
// Index. It must be called (directly or via the facade) before
// simulation or analysis. Editing a task's Priority, Proc or Body
// afterwards requires validating again: the index, the ceilings and the
// analyses read what the last Validate derived.
//
// Validate rebuilds the index in the storage of the one it replaces, so
// an Index and every slice read from it are valid only until this
// system's next Validate. Whatever its outcome, the last index is gone
// once Validate starts: after a failure Validated reports false and
// Index returns nil until a Validate succeeds.
func (s *System) Validate(opts ValidateOptions) error {
	s.validated = false
	x := s.ix
	if x == nil {
		x = s.spare
	}
	if x == nil {
		x = new(Index)
	}
	s.ix, s.spare = nil, x
	if s.NumProcs <= 0 {
		return ErrNoProcs
	}
	if len(s.Tasks) == 0 {
		return ErrNoTasks
	}

	st := &x.store
	var dupPrio, firstPrio int
	st.byPrio, dupPrio, firstPrio = priorityOrder(s.Tasks, st)
	var dupID int
	st.byID, dupID = firstRepeatedID(s.Tasks, st)
	for i, t := range s.Tasks {
		if i == dupID {
			return fmt.Errorf("%w: %d", ErrDuplicateTaskID, t.ID)
		}
		if i == dupPrio {
			return fmt.Errorf("%w: tasks %d and %d share priority %d",
				ErrDuplicatePriority, s.Tasks[firstPrio].ID, t.ID, t.Priority)
		}
		if t.Proc < 0 || int(t.Proc) >= s.NumProcs {
			return fmt.Errorf("%w: task %d on processor %d of %d",
				ErrBadBinding, t.ID, t.Proc, s.NumProcs)
		}
		if t.Period <= 0 {
			return fmt.Errorf("%w: task %d", ErrBadPeriod, t.ID)
		}
	}

	// Release-model checks need every period validated first: the offset
	// bound is the system hyperperiod.
	hyper := s.Hyperperiod()
	for _, t := range s.Tasks {
		if t.Offset < 0 {
			return fmt.Errorf("%w: task %d offset %d", ErrNegativeOffset, t.ID, t.Offset)
		}
		if t.Offset > hyper {
			return fmt.Errorf("%w: task %d offset %d, hyperperiod %d",
				ErrOffsetTooLarge, t.ID, t.Offset, hyper)
		}
		if t.Jitter < 0 {
			return fmt.Errorf("%w: task %d jitter %d", ErrNegativeJitter, t.ID, t.Jitter)
		}
		if t.Jitter > t.Period {
			return fmt.Errorf("%w: task %d jitter %d, period %d",
				ErrJitterTooLarge, t.ID, t.Jitter, t.Period)
		}
		if t.MinInterarrival < 0 || t.MinInterarrival > t.Period {
			return fmt.Errorf("%w: task %d min interarrival %d, period %d",
				ErrBadMinInterarrival, t.ID, t.MinInterarrival, t.Period)
		}
		if t.MinInterarrival > 0 && t.MinInterarrival < t.WCET() {
			return fmt.Errorf("%w: task %d min interarrival %d, cost %d",
				ErrMinBelowCost, t.ID, t.MinInterarrival, t.WCET())
		}
	}

	semPos, err := newSemPositions(s.Sems, x.semPos.byID)
	if err != nil {
		return err
	}
	x.semPos = semPos

	// Derive which processors access each semaphore: the lowest one, and
	// whether any other does, which makes the semaphore global.
	lowest := resize(x.lowest, len(s.Sems))
	x.lowest = lowest
	for k := range lowest {
		lowest[k] = -1
	}
	global := resize(st.global, len(s.Sems))
	st.global = global
	locks := 0
	for _, t := range s.Tasks {
		for _, seg := range t.Body {
			if seg.Kind != SegLock && seg.Kind != SegUnlock {
				continue
			}
			if seg.Kind == SegLock {
				locks++
			}
			k, ok := semPos.of(seg.Sem)
			if !ok {
				return fmt.Errorf("%w: task %d, semaphore %d",
					ErrUnknownSemaphore, t.ID, seg.Sem)
			}
			switch low := lowest[k]; {
			case low < 0:
				lowest[k] = t.Proc
			case low != t.Proc:
				global[k] = true
				lowest[k] = min(low, t.Proc)
			}
		}
	}
	for k, sem := range s.Sems {
		sem.Global = global[k]
	}

	// Walk each body: match lock/unlock, extract critical sections.
	st.held = resize(st.held, len(s.Sems))
	if cap(st.all) < locks {
		st.all = make([]CriticalSection, 0, locks)
	}
	w := sectionWalker{
		semPos: semPos,
		global: global,
		held:   st.held,
		opts:   opts,
		stack:  st.stack,
		out:    st.all[:0],
	}
	ends := resize(st.ends, len(s.Tasks))
	st.ends = ends
	for i, t := range s.Tasks {
		if err := w.walk(t); err != nil {
			return err
		}
		ends[i] = len(w.out)
	}
	st.stack, st.all = w.stack, w.out

	x.build(s)
	s.ix, s.spare = x, nil
	s.validated = true
	return nil
}

// resize returns s with length n and zero elements, reusing its storage
// when it has room.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// priorityOrder returns the task positions by descending priority, ties
// in system order: the order in which Index.build files the tasks of
// every processor and semaphore. It also returns the lowest position
// whose priority an earlier task has, and that task's position; -1, -1
// when no priority repeats, and only then is the order meaningful. The
// order is built in st's storage.
func priorityOrder(tasks []*Task, st *indexStore) (order []int, dup, first int) {
	keys := resize(st.keys, len(tasks))
	for i, t := range tasks {
		keys[i] = t.Priority
	}
	st.keys = keys
	order = byKey(st.byPrio, keys, &st.pairs)
	dup, first = firstRepeat(order, keys)
	return order, dup, first
}

// firstRepeatedID returns the task positions by ascending ID, built in
// st's storage, and the lowest position of a task whose ID an earlier
// task has, or -1.
func firstRepeatedID(tasks []*Task, st *indexStore) (order []int, dup int) {
	keys := resize(st.keys, len(tasks))
	for i, t := range tasks {
		keys[i] = ^int(t.ID) // ^ reverses the order: ascending IDs
	}
	st.keys = keys
	order = byKey(st.byID, keys, &st.pairs)
	dup, _ = firstRepeat(order, keys)
	return order, dup
}

// sortKey is a key and the position it belongs to.
type sortKey struct{ key, pos int }

// bySortKey orders sort keys by descending key, equal keys by position.
func bySortKey(a, b sortKey) int {
	if c := cmp.Compare(b.key, a.key); c != 0 {
		return c
	}
	return cmp.Compare(a.pos, b.pos)
}

// byKey returns the positions 0..len(keys)-1 by descending key, equal
// keys in position order, built in order's storage when it has room.
// Keys that are distinct and consecutive, as priorities 1..n and the
// generator's IDs are, are placed without a sort; any others are sorted
// as (key, position) pairs in pairs' storage.
func byKey(order []int, keys []int, pairs *[]sortKey) []int {
	n := len(keys)
	order = resize(order, n)
	if n == 0 {
		return order
	}
	hi, lo := keys[0], keys[0]
	for _, k := range keys {
		hi, lo = max(hi, k), min(lo, k)
	}
	if hi-lo == n-1 { // a wrapped-around difference is negative
		for i := range order {
			order[i] = -1
		}
		i := 0
		for ; i < n && order[hi-keys[i]] < 0; i++ {
			order[hi-keys[i]] = i
		}
		if i == n {
			return order
		}
	}
	ps := resize(*pairs, n)
	for i, k := range keys {
		ps[i] = sortKey{k, i}
	}
	slices.SortFunc(ps, bySortKey)
	for i, p := range ps {
		order[i] = p.pos
	}
	*pairs = ps
	return order
}

// firstRepeat returns the lowest position whose key an earlier position
// has, and the first position with that key; -1, -1 when no key repeats.
// order holds the positions as byKey sorts keys.
func firstRepeat(order, keys []int) (at, first int) {
	at, first = -1, -1
	head := 0
	for k := 1; k < len(order); k++ {
		if keys[order[k]] != keys[order[head]] {
			head = k
			continue
		}
		if at < 0 || order[k] < at {
			at, first = order[k], order[head]
		}
	}
	return at, first
}

// semPositions resolves semaphore IDs to positions in System.Sems. When
// the IDs are 1..n in order, as the workload generator numbers them, a
// position is the ID less one and no map is built.
type semPositions struct {
	n    int
	byID map[SemID]int // nil when the IDs are 1..n in order
}

// newSemPositions indexes sems, rejecting a duplicate ID. A map it
// needs is built in byID when that is not nil.
func newSemPositions(sems []*Semaphore, byID map[SemID]int) (semPositions, error) {
	sp := semPositions{n: len(sems)}
	for k, sem := range sems {
		if sem.ID != SemID(k+1) {
			if byID == nil {
				byID = make(map[SemID]int, len(sems))
			}
			clear(byID)
			sp.byID = byID
			break
		}
	}
	if sp.byID == nil {
		return sp, nil
	}
	for k, sem := range sems {
		if _, dup := sp.byID[sem.ID]; dup {
			return sp, fmt.Errorf("%w: %d", ErrDuplicateSemID, sem.ID)
		}
		sp.byID[sem.ID] = k
	}
	return sp, nil
}

// of returns the position of semaphore id, and whether there is one.
func (sp semPositions) of(id SemID) (int, bool) {
	if sp.byID != nil {
		k, ok := sp.byID[id]
		return k, ok
	}
	k := int(id) - 1
	return k, k >= 0 && k < sp.n
}

type openCS struct {
	sem      SemID
	pos      int // of sem in System.Sems
	startSeg int
	duration int
	nested   bool
}

// sectionWalker extracts the critical sections of one body after
// another into out, reusing its scratch between bodies.
type sectionWalker struct {
	semPos semPositions
	global []bool // by semaphore position
	held   []bool // by semaphore position; all false between bodies
	opts   ValidateOptions
	stack  []openCS
	out    []CriticalSection
}

// walk appends t's critical sections to w.out, in the order their
// Unlocks appear.
func (w *sectionWalker) walk(t *Task) error {
	w.stack = w.stack[:0]
	for i, seg := range t.Body {
		switch seg.Kind {
		case SegCompute:
			if seg.Duration < 0 {
				return fmt.Errorf("%w: task %d segment %d", ErrNegativeDuration, t.ID, i)
			}
			for k := range w.stack {
				w.stack[k].duration += seg.Duration
			}
		case SegLock:
			k, _ := w.semPos.of(seg.Sem)
			if w.held[k] {
				return fmt.Errorf("%w: task %d, semaphore %d", ErrSelfDeadlock, t.ID, seg.Sem)
			}
			if len(w.stack) > 0 {
				top := &w.stack[len(w.stack)-1]
				if !w.opts.AllowNestedGlobal && (w.global[k] || w.global[top.pos]) {
					return fmt.Errorf("%w: task %d, semaphore %d inside %d",
						ErrNestedGlobal, t.ID, seg.Sem, top.sem)
				}
				top.nested = true
			}
			w.held[k] = true
			w.stack = append(w.stack, openCS{sem: seg.Sem, pos: k, startSeg: i})
		case SegUnlock:
			if len(w.stack) == 0 || w.stack[len(w.stack)-1].sem != seg.Sem {
				return fmt.Errorf("%w: task %d segment %d unlocks %d",
					ErrUnbalancedLocks, t.ID, i, seg.Sem)
			}
			top := w.stack[len(w.stack)-1]
			w.stack = w.stack[:len(w.stack)-1]
			k := top.pos
			w.held[k] = false
			w.out = append(w.out, CriticalSection{
				Task:      t.ID,
				Sem:       top.sem,
				SemPos:    k,
				Duration:  top.duration,
				Outermost: len(w.stack) == 0,
				Nested:    top.nested,
				Global:    w.global[k],
				StartSeg:  top.startSeg,
				EndSeg:    i,
			})
		default:
			return fmt.Errorf("task %d segment %d: unknown kind %v", t.ID, i, seg.Kind)
		}
	}
	if len(w.stack) != 0 {
		return fmt.Errorf("%w: task %d, semaphore %d", ErrHeldAtCompletion, t.ID, w.stack[len(w.stack)-1].sem)
	}
	return nil
}

// Validated reports whether the last Validate succeeded and nothing was
// mutated through the System's methods since.
func (s *System) Validated() bool { return s.validated }

// Index returns the position-indexed structure the last Validate
// derived, or nil before one succeeds and after one fails. It is valid
// until this system's next Validate.
func (s *System) Index() *Index { return s.ix }

// CriticalSections returns the critical sections of task id, in the
// order their Unlocks appear in its body. The System must have been
// validated; the slice is shared and read-only.
func (s *System) CriticalSections(id ID) []CriticalSection {
	if i := s.taskPos(id); i >= 0 {
		return s.ix.Sections(i)
	}
	return nil
}

// GlobalSections returns the outermost global critical sections of task
// id. The System must have been validated; the slice is shared and
// read-only.
func (s *System) GlobalSections(id ID) []CriticalSection {
	if i := s.taskPos(id); i >= 0 {
		return s.ix.Global(i)
	}
	return nil
}

// LocalSections returns the critical sections of task id that are
// guarded by local semaphores. The System must have been validated; the
// slice is shared and read-only.
func (s *System) LocalSections(id ID) []CriticalSection {
	if i := s.taskPos(id); i >= 0 {
		return s.ix.Local(i)
	}
	return nil
}

// taskPos returns the position of task id in the index, or -1 when the
// system has no index or the index has no such task.
func (s *System) taskPos(id ID) int {
	if s.ix == nil {
		return -1
	}
	for i, t := range s.Tasks[:min(len(s.Tasks), len(s.ix.sections))] {
		if t.ID == id {
			return i
		}
	}
	return -1
}

// TasksOn returns the tasks bound to processor p, sorted by descending
// priority. The System must have been validated; the slice is shared and
// read-only.
func (s *System) TasksOn(p ProcID) []*Task {
	if s.ix == nil {
		return nil
	}
	return s.ix.byPrio[p]
}

// HighestPriority returns P_H, the highest base priority assigned to any
// task in the entire system (Section 4.4).
func (s *System) HighestPriority() int {
	best := 0
	for i, t := range s.Tasks {
		if i == 0 || t.Priority > best {
			best = t.Priority
		}
	}
	return best
}

// Utilization returns the total utilization of the task set.
func (s *System) Utilization() float64 {
	total := 0.0
	for _, t := range s.Tasks {
		total += t.Utilization()
	}
	return total
}

// ProcUtilization returns the utilization of the tasks bound to processor p.
func (s *System) ProcUtilization(p ProcID) float64 {
	total := 0.0
	for _, t := range s.Tasks {
		if t.Proc == p {
			total += t.Utilization()
		}
	}
	return total
}

// Hyperperiod returns the least common multiple of all task periods, the
// natural simulation horizon. It saturates at maxHyperperiod to keep
// adversarial inputs from overflowing.
func (s *System) Hyperperiod() int {
	const maxHyperperiod = 1 << 40
	l := 1
	for _, t := range s.Tasks {
		l = lcm(l, t.Period)
		if l > maxHyperperiod {
			return maxHyperperiod
		}
	}
	return l
}

// HasReleaseVariance reports whether any task's release sequence depends
// on seed-derived draws (see Task.HasReleaseVariance). Variance-free
// systems ignore ReleaseSeed entirely.
func (s *System) HasReleaseVariance() bool {
	for _, t := range s.Tasks {
		if t.HasReleaseVariance() {
			return true
		}
	}
	return false
}

// MaxOffset returns the largest release offset in the task set.
func (s *System) MaxOffset() int {
	max := 0
	for _, t := range s.Tasks {
		if t.Offset > max {
			max = t.Offset
		}
	}
	return max
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm(a, b int) int {
	if a == 0 || b == 0 {
		return 0
	}
	return a / gcd(a, b) * b
}

// AssignRateMonotonic assigns distinct base priorities by the
// rate-monotonic rule of [6]: shorter period means higher priority. Ties on
// period are broken by task ID (lower ID wins) so the assignment is
// deterministic. Priorities are 1..n with n = highest.
func AssignRateMonotonic(s *System) {
	assignByKey(s, func(t *Task) int { return t.Period })
}

// AssignDeadlineMonotonic assigns distinct base priorities by relative
// deadline: shorter deadline means higher priority (optimal for static
// priorities when deadlines may be shorter than periods). Ties break by
// task ID. Priorities are 1..n with n = highest.
func AssignDeadlineMonotonic(s *System) {
	assignByKey(s, func(t *Task) int { return t.RelativeDeadline() })
}

// rankKey is a task's priority-assignment key.
type rankKey struct {
	key int
	id  ID
	t   *Task
}

// byRankKey orders rank keys by descending key, then descending ID: the
// order in which assignByKey hands out priorities 1..n.
func byRankKey(a, b rankKey) int {
	if c := cmp.Compare(b.key, a.key); c != 0 {
		return c
	}
	return cmp.Compare(b.id, a.id)
}

// assignByKey gives the task with the largest key, ties to the largest
// ID, priority 1, the next priority 2, and so on, and marks s
// unvalidated. Its sort runs in the storage of s's index: on packed
// words when every key, ID and position fits one, as periods,
// deadlines and the generator's IDs do, else on rank keys.
func assignByKey(s *System, key func(*Task) int) {
	x := s.ix
	if x == nil {
		if s.spare == nil {
			s.spare = new(Index)
		}
		x = s.spare
	}
	if words, ok := packRanks(x.store.words, s.Tasks, key); ok {
		slices.Sort(words)
		for i, w := range words {
			s.Tasks[w&packField].Priority = i + 1
		}
		x.store.words = words
		s.validated = false
		return
	}
	ranks := resize(x.store.ranks, len(s.Tasks))
	for i, t := range s.Tasks {
		ranks[i] = rankKey{key(t), t.ID, t}
	}
	slices.SortFunc(ranks, byRankKey)
	for i, r := range ranks {
		r.t.Priority = i + 1
	}
	clear(ranks) // drop the task pointers
	x.store.ranks = ranks
	s.validated = false
}

// packField is the largest ID and position a packed rank word holds,
// and the mask of its position field.
const packField = 1<<16 - 1

// packRanks packs each task's key, ID and position into one word in
// words' storage, key<<32 | ID<<16 | position with the key and ID
// complemented, so that ascending words run by descending key, then
// descending ID: byRankKey's order. It reports false when some key is
// outside [0, 2^32), some ID outside [0, 2^16) or some position past
// 2^16-1.
func packRanks(words []uint64, tasks []*Task, key func(*Task) int) ([]uint64, bool) {
	if len(tasks) > packField+1 {
		return words, false
	}
	if cap(words) < len(tasks) {
		words = make([]uint64, 0, len(tasks))
	}
	words = words[:0]
	for i, t := range tasks {
		k := key(t)
		if k < 0 || uint64(k) > math.MaxUint32 || t.ID < 0 || t.ID > packField {
			return words, false
		}
		words = append(words, (math.MaxUint32-uint64(k))<<32|uint64(packField-t.ID)<<16|uint64(i))
	}
	return words, true
}
