package task

// Index is the position-indexed structure Validate derives from a task
// set: what every ceiling, blocking bound and schedulability test reads,
// computed once per validation instead of once per analysis call. A task
// position is an index into System.Tasks and a semaphore position an
// index into System.Sems; every critical section carries its
// semaphore's position in SemPos. An Index is valid until its system's
// next Validate, which rebuilds the index in the same storage; every
// slice its methods return is shared and read-only, capped so that an
// append by a caller copies.
type Index struct {
	// sections, global and local hold, by task position, every
	// critical section (in the order their Unlocks appear), the
	// outermost global ones, and the local ones.
	sections, global, local [][]CriticalSection
	// byPrio and inOrder hold, by processor, the tasks bound to it:
	// by descending priority, and as task positions in system order.
	byPrio  [][]*Task
	inOrder [][]int
	// users holds, by semaphore position, the positions of the tasks
	// that access it, by descending priority; lowest the lowest
	// processor they are bound to, -1 for an unused semaphore.
	users  [][]int
	lowest []ProcID
	// semPos resolves a semaphore ID to its position.
	semPos semPositions

	store indexStore
}

// indexStore is the storage an Index is built in and Validate's
// scratch, kept for the next Validate of the same system.
type indexStore struct {
	byPrio, byID []int // task positions by descending priority, ascending ID
	// keys, pairs, words and ranks are sort scratch: priorityOrder's
	// and firstRepeatedID's keys and pairs, assignByKey's packed words
	// and rank keys.
	keys         []int
	pairs        []sortKey
	words        []uint64
	ranks        []rankKey
	global, held []bool
	stack        []openCS
	// all holds every critical section, task i's at
	// all[ends[i-1]:ends[i]]; gflat and lflat the outermost global and
	// the local ones.
	all, gflat, lflat []CriticalSection
	ends              []int
	procOf            []int
	tasks             []*Task
	semOf, taskOf     []int
	last              []int
	inOrder, users    grouping
}

// Sections returns the critical sections of the task at position i, in
// the order their Unlocks appear in its body.
func (x *Index) Sections(i int) []CriticalSection { return x.sections[i] }

// Global returns the outermost global critical sections of the task at
// position i.
func (x *Index) Global(i int) []CriticalSection { return x.global[i] }

// Local returns the critical sections of the task at position i that
// are guarded by local semaphores.
func (x *Index) Local(i int) []CriticalSection { return x.local[i] }

// ByPriority returns the task positions by descending priority.
func (x *Index) ByPriority() []int {
	p := x.store.byPrio
	return p[:len(p):len(p)]
}

// ByID returns the task positions by ascending ID.
func (x *Index) ByID() []int {
	id := x.store.byID
	return id[:len(id):len(id)]
}

// OnProc returns the positions of the tasks bound to processor p, in
// system order.
func (x *Index) OnProc(p ProcID) []int { return x.inOrder[p] }

// SemPos returns the position in System.Sems of semaphore id, and
// whether the system has one.
func (x *Index) SemPos(id SemID) (int, bool) { return x.semPos.of(id) }

// Users returns the positions of the tasks that access the semaphore at
// position k, by descending priority.
func (x *Index) Users(k int) []int { return x.users[k] }

// LowestAccessor returns the lowest-numbered processor from which the
// semaphore at position k is accessed, or -1 when no task accesses it.
func (x *Index) LowestAccessor(k int) ProcID { return x.lowest[k] }

// build derives x from s and the scratch Validate filled: the critical
// sections in store.all and store.ends, the lowest accessor processor
// of every semaphore, the task positions by descending priority and the
// semaphore positions by ID.
func (x *Index) build(s *System) {
	n := len(s.Tasks)
	st := &x.store
	all, byPrio := st.all, st.byPrio
	x.sections = resize(x.sections, n)
	x.global = resize(x.global, n)
	x.local = resize(x.local, n)

	// Sections: one backing array for the outermost global ones and one
	// for the local ones, each task's a capped window of it.
	var nGlobal, nLocal int
	for _, cs := range all {
		switch {
		case !cs.Global:
			nLocal++
		case cs.Outermost:
			nGlobal++
		}
	}
	gflat := resize(st.gflat, nGlobal)[:0]
	lflat := resize(st.lflat, nLocal)[:0]
	start := 0
	for i, end := range st.ends {
		g0, l0 := len(gflat), len(lflat)
		for _, cs := range all[start:end] {
			switch {
			case !cs.Global:
				lflat = append(lflat, cs)
			case cs.Outermost:
				gflat = append(gflat, cs)
			}
		}
		x.sections[i] = all[start:end:end]
		x.global[i] = gflat[g0:len(gflat):len(gflat)]
		x.local[i] = lflat[l0:len(lflat):len(lflat)]
		start = end
	}
	st.gflat, st.lflat = gflat, lflat

	// Processors: group the task positions by processor, in system
	// order and, filed from byPrio, by descending priority.
	procOf := resize(st.procOf, n)
	st.procOf = procOf
	for i, t := range s.Tasks {
		procOf[i] = int(t.Proc)
	}
	x.inOrder = st.inOrder.group(s.NumProcs, procOf, nil)
	x.byPrio = resize(x.byPrio, s.NumProcs)
	st.tasks = resize(st.tasks, n)
	tasks := st.tasks
	for p, on := range x.inOrder {
		x.byPrio[p] = tasks[:0:len(on)]
		tasks = tasks[len(on):]
	}
	for _, i := range byPrio {
		p := procOf[i]
		x.byPrio[p] = append(x.byPrio[p], s.Tasks[i])
	}

	// Semaphores: one (semaphore, task) pair per task that locks it,
	// however many of its sections it guards, filed by descending
	// priority.
	semOf := resize(st.semOf, len(all))[:0]
	taskOf := resize(st.taskOf, len(all))[:0]
	last := resize(st.last, len(s.Sems))
	for _, i := range byPrio {
		for _, cs := range x.sections[i] {
			if last[cs.SemPos] != i+1 {
				last[cs.SemPos] = i + 1
				semOf = append(semOf, cs.SemPos)
				taskOf = append(taskOf, i)
			}
		}
	}
	st.semOf, st.taskOf, st.last = semOf, taskOf, last
	x.users = st.users.group(len(s.Sems), semOf, taskOf)
}

// grouping is the storage of one group result.
type grouping struct {
	ends, flat []int
	out        [][]int
}

// group lists owners[j] (j itself when owners is nil) under group
// keys[j], for every j in order. Every group's list is a capped window
// of one backing array. The result is built in g's storage and valid
// until g's next group.
func (g *grouping) group(groups int, keys, owners []int) [][]int {
	ends := resize(g.ends, groups)
	for _, k := range keys {
		ends[k]++
	}
	total := 0
	for k, c := range ends {
		total += c
		ends[k] = total - c // the group's start, advanced to its end below
	}
	flat := resize(g.flat, total)
	for j, k := range keys {
		owner := j
		if owners != nil {
			owner = owners[j]
		}
		flat[ends[k]] = owner
		ends[k]++
	}
	out := resize(g.out, groups)
	start := 0
	for k, end := range ends {
		out[k] = flat[start:end:end]
		start = end
	}
	g.ends, g.flat, g.out = ends, flat, out
	return out
}
