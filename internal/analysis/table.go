package analysis

import (
	"fmt"
	"math/bits"

	"mpcp/internal/ceiling"
	"mpcp/internal/task"
)

// Analyzer computes blocking bounds in storage it keeps from one call to
// the next: the per-system table every analysis reads, and the bounds it
// returns. The package-level entries run on a fresh Analyzer, and a
// campaign point keeps one across its trials. An Analyzer is not safe
// for concurrent use; give each goroutine one.
type Analyzer struct {
	t      table
	bounds []Bound
	out    map[task.ID]*Bound
}

// Bounds computes every task's worst-case blocking bound under a and
// opts. The bounds are held in z's storage: they are valid until z's
// next call.
func (z *Analyzer) Bounds(a *Analysis, sys *task.System, opts Options) (map[task.ID]*Bound, error) {
	if err := checkAnalyzable(sys); err != nil {
		return nil, err
	}
	if err := a.prepare(&z.t, sys, opts); err != nil {
		return nil, err
	}
	z.bounds = resize(z.bounds, len(sys.Tasks))
	if z.out == nil {
		z.out = make(map[task.ID]*Bound, len(sys.Tasks))
	}
	clear(z.out)
	// By descending priority: with rate-monotonic priorities, tasks of
	// equal period are then bounded in turn and share the release counts
	// t.interferes keeps.
	for _, i := range sys.Index().ByPriority() {
		b := &z.bounds[i]
		b.Task = sys.Tasks[i].ID
		a.bound(&z.t, nil, b, i)
		z.out[b.Task] = b
	}
	return z.out, nil
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

// table is what the bounded-task loops of Composed, MSRP and FMLP read
// instead of rescanning critical sections: sums and maxima over the
// global critical sections of one system, built once per analysis call.
// Global semaphores are indexed by ordinal, their rank among the global
// semaphores of sys.Sems; a table row of a task has one entry per
// ordinal. build fills what every analysis reads, and each analysis's
// prepare the rest.
type table struct {
	sys    *task.System
	ix     *task.Index
	opts   Options
	ceil   ceiling.Table
	nProcs int

	// ord gives, by semaphore position, the global ordinal, -1 for a
	// local semaphore; pos the semaphore position of each ordinal.
	ord, pos []int

	// By task position: the processor, and the WCET with the deferred
	// penalty, which alone reads it.
	proc, wcet []int
	// buildTime: by task position and global ordinal, at
	// [i*len(pos)+g], the total duration of the task's global sections
	// on it.
	time []int

	// memo holds, by task position, interferes(memoW[j], Tasks[j]): the
	// count of the window last asked for, 0 for none.
	memo, memoW []int

	// buildSpins: at holds, by ordinal and processor at [g*nProcs+q],
	// the longest global section on g issued from q; total, by ordinal,
	// the sum of at over every processor.
	at, total []int

	// Every []int and []bool table above and below is a window of one
	// of these.
	ints  slab[int]
	bools slab[bool]

	composedPart
	spinPart
}

// slab hands out zeroed windows of one backing array, which reset keeps
// for the next analysis call.
type slab[T any] struct {
	buf  []T
	want int // elements taken since the last reset
}

// reset frees every window and makes room for hint elements, and for as
// many as the last call took.
func (s *slab[T]) reset(hint int) {
	if n := max(hint, s.want); cap(s.buf) < n {
		s.buf = make([]T, 0, n)
	}
	s.buf, s.want = s.buf[:0], 0
}

// take returns a zeroed window of n elements, from a new backing array
// when the current one is full.
func (s *slab[T]) take(n int) []T {
	if cap(s.buf)-len(s.buf) < n {
		s.buf = make([]T, 0, max(n, 2*cap(s.buf)))
	}
	at := len(s.buf)
	s.buf = s.buf[:at+n]
	s.want += n
	w := s.buf[at : at+n : at+n]
	clear(w)
	return w
}

// globals returns the number of global semaphores of sys.
func globals(sys *task.System) int {
	nG := 0
	for _, sem := range sys.Sems {
		if sem.Global {
			nG++
		}
	}
	return nG
}

// build fills t's common part for sys under opts, with room for the
// ints and bools the analysis's own part takes.
func (t *table) build(sys *task.System, opts Options, ints, bools int) {
	ix := sys.Index()
	t.sys, t.ix, t.opts, t.nProcs = sys, ix, opts, sys.NumProcs
	nG, n := globals(sys), len(sys.Tasks)
	common := len(sys.Sems) + nG + 3*n
	if opts.DeferredPenalty {
		common += n
	}
	t.ints.reset(common + ints)
	t.bools.reset(bools)

	t.ord = t.ints.take(len(sys.Sems))
	t.pos = t.ints.take(nG)[:0]
	for k, sem := range sys.Sems {
		t.ord[k] = -1
		if sem.Global {
			t.ord[k] = len(t.pos)
			t.pos = append(t.pos, k)
		}
	}
	t.proc = t.ints.take(n)
	t.memo = t.ints.take(n)
	t.memoW = t.ints.take(n)
	for i, ti := range sys.Tasks {
		t.proc[i] = int(ti.Proc)
	}
	t.wcet = nil
	if opts.DeferredPenalty {
		t.wcet = t.ints.take(n)
		for i, ti := range sys.Tasks {
			t.wcet[i] = ti.WCET()
		}
	}
}

// timeInts is how many ints buildTime takes for n tasks and nG global
// semaphores; spinsInts the same for buildSpins on nP processors.
func timeInts(n, nG int) int   { return n * nG }
func spinsInts(nG, nP int) int { return nG*nP + nG }

// buildTime fills time.
func (t *table) buildTime() {
	t.time = t.ints.take(len(t.sys.Tasks) * len(t.pos))
	for i := range t.sys.Tasks {
		time := t.row(t.time, i)
		for _, cs := range t.ix.Global(i) {
			time[t.ord[cs.SemPos]] += cs.Duration
		}
	}
}

// buildSpins fills at and total.
func (t *table) buildSpins() {
	nG, nP := len(t.pos), t.nProcs
	t.at = t.ints.take(nG * nP)
	t.total = t.ints.take(nG)
	for i := range t.sys.Tasks {
		for _, cs := range t.ix.Global(i) {
			g := t.ord[cs.SemPos]
			a := g*nP + t.proc[i]
			t.at[a] = max(t.at[a], cs.Duration)
		}
	}
	for g := range t.total {
		for _, d := range t.at[g*nP : (g+1)*nP] {
			t.total[g] += d
		}
	}
}

// row returns row i of of, a table with one entry per ordinal in each
// row: the entries of task position i in time, rank and longest, or of
// processor i in gcsAt.
func (t *table) row(of []int, i int) []int {
	n := len(t.pos)
	return of[i*n : (i+1)*n]
}

// interferes is interferes(w, Tasks[j]), computed once for each run of
// calls with the same window.
func (t *table) interferes(w, j int) int {
	if t.memoW[j] != w {
		t.memoW[j], t.memo[j] = w, interferes(w, t.sys.Tasks[j])
	}
	return t.memo[j]
}

// spin is the worst-case busy-wait of one FIFO request on global
// ordinal g from proc: one critical section per other processor, since
// a job spins at the non-preemptive level and each processor therefore
// has at most one outstanding request.
func (t *table) spin(proc task.ProcID, g int) int {
	return t.total[g] - t.at[g*t.nProcs+int(proc)]
}

// composedPart is what only the composed analysis reads.
type composedPart struct {
	// remote marks, and sync gives the synchronization processor of,
	// each global ordinal handled remotely; syncProcs is
	// ceiling.SyncProcs's result by semaphore position.
	remote    []bool
	sync      []int
	syncProcs []task.ProcID
	// gcsAt holds the gcs execution priority by processor and ordinal,
	// at [q*len(pos)+g].
	gcsAt []int
	// bySyncAll lists the remote gcs's by synchronization processor,
	// each processor's in system order: processor sp's are
	// [syncAt[sp]:syncAt[sp+1]].
	bySyncAll []remoteGcs
	syncAt    []int

	// The rest covers the shared-memory semaphores only. rank holds, by
	// task position and ordinal like time, the task's rank in
	// Index.Users of the semaphore, for the semaphores it uses. For
	// ordinal g and rank r, at [sufStart[g]+r], sufTask and sufDur give
	// the longest section on g of the users of rank r or more (ties to
	// the lowest task position, so Explain names the section a scan in
	// system order would; task 0 and 0 ticks when there is none), and
	// sufProcs at [(sufStart[g]+r)*words] the set of their processors.
	// Each ordinal has one entry more than users, the empty suffix.
	rank             []int
	sufStart         []int
	sufTask, sufDur  []int
	sufProcs         []uint64
	words            int
	shmCount, shmSem []int
	shmDur           []int // with shmSem: each task's longest section
	// above holds, by ordinal g and task position l at [g*len(Tasks)+l],
	// the time of l's sections on shared-memory semaphores that execute
	// above a gcs on g issued from l's processor.
	above []int

	// Per bounded task scratch: the ordinals of its shared-memory
	// semaphores, each once, and their marks; by task position, the
	// time of its higher-priority requests on them, and the set of
	// positions that have some; by processor, whether the task uses it
	// for synchronization and the longest lower-priority gcs it serves;
	// the processors that block the task, and on each the ordinal of the
	// lowest-priority blocking gcs.
	shm       []int
	inShm     []bool
	preceding []int
	precedes  []uint64
	usesSync  []bool
	served    []remoteGcs
	blocked   []uint64
	blocker   []int

	// bits backs the sets sufProcs, blocked and precedes.
	bits []uint64
}

// prepareComposed builds t for the composed analysis of sys under opts.
func (t *table) prepareComposed(sys *task.System, opts Options) error {
	remote := opts.Remote
	var assign []task.ProcID // nil: no remote semaphore
	switch {
	case remote == nil:
	case len(remote) != len(sys.Sems):
		return fmt.Errorf("analysis: remote set has %d entries for %d semaphores", len(remote), len(sys.Sems))
	default:
		var err error
		if t.syncProcs, err = ceiling.SyncProcs(t.syncProcs, sys, remote, opts.DPCPAssign); err != nil {
			return fmt.Errorf("analysis: %w", err)
		}
		assign = t.syncProcs
	}
	nG, nP, n := globals(sys), sys.NumProcs, len(sys.Tasks)
	ix := sys.Index()
	nShm, nSuf := 0, 0 // shared-memory semaphores, suffix entries
	for k, sem := range sys.Sems {
		if sem.Global && (remote == nil || !remote[k]) {
			nShm++
			nSuf += len(ix.Users(k)) + 1
		}
	}
	shmInts := 0
	if nShm > 0 {
		shmInts = 2*n*nG + nG + 2*nSuf // rank, above, sufStart, sufTask, sufDur
	}
	t.build(sys, opts, timeInts(n, nG)+2*nG+nG*nP+3*nP+1+4*n+shmInts, 2*nG+nP)
	t.buildTime()
	t.ceil.Build(sys, opts.GcsAtCeiling)

	t.remote = t.bools.take(nG)
	t.sync = t.ints.take(nG)
	t.gcsAt = t.ints.take(nG * nP)
	for g, k := range t.pos {
		if assign != nil {
			t.remote[g], t.sync[g] = remote[k], int(assign[k])
		}
		for q := 0; q < nP; q++ {
			t.gcsAt[q*nG+g] = t.ceil.GcsAt(k, task.ProcID(q))
		}
	}

	// Remote gcs's by synchronization processor, in system order.
	t.syncAt = t.ints.take(nP + 1)
	for i := range sys.Tasks {
		for _, cs := range ix.Global(i) {
			if g := t.ord[cs.SemPos]; t.remote[g] {
				t.syncAt[t.sync[g]+1]++
			}
		}
	}
	for sp := 0; sp < nP; sp++ {
		t.syncAt[sp+1] += t.syncAt[sp]
	}
	if nRemote := t.syncAt[nP]; nRemote > 0 {
		t.bySyncAll = resize(t.bySyncAll, nRemote)
		t.served = resize(t.served, nP)
		next := t.ints.take(nP)
		copy(next, t.syncAt)
		for i, ti := range sys.Tasks {
			for _, cs := range ix.Global(i) {
				if g := t.ord[cs.SemPos]; t.remote[g] {
					t.bySyncAll[next[t.sync[g]]] = remoteGcs{pos: i, task: ti.ID, prio: ti.Priority, sem: cs.Sem, dur: cs.Duration}
					next[t.sync[g]]++
				}
			}
		}
	}

	t.shmCount = t.ints.take(n)
	t.shmSem = t.ints.take(n)
	t.shmDur = t.ints.take(n)
	t.shm = t.ints.take(nG)
	t.inShm = t.bools.take(nG)
	t.preceding = t.ints.take(n)
	t.usesSync = t.bools.take(nP)
	t.blocker = t.ints.take(nP)
	if nShm == 0 {
		t.blocked, t.precedes = nil, nil
		return nil
	}

	// Users' ranks, and suffix maxima and processor sets over them.
	t.words = (nP + 63) / 64
	t.rank = t.ints.take(n * nG)
	t.sufStart = t.ints.take(nG)
	at := 0
	for g, k := range t.pos {
		if !t.remote[g] {
			t.sufStart[g] = at
			at += len(ix.Users(k)) + 1
		}
	}
	t.sufTask = t.ints.take(nSuf)
	t.sufDur = t.ints.take(nSuf)
	t.bits = resize(t.bits, (nSuf+1)*t.words+(n+63)/64)
	t.sufProcs = t.bits[:nSuf*t.words]
	t.blocked = t.bits[nSuf*t.words : (nSuf+1)*t.words]
	t.precedes = t.bits[(nSuf+1)*t.words:]
	for g, k := range t.pos {
		if t.remote[g] {
			continue
		}
		users := ix.Users(k)
		base, bestAt := t.sufStart[g], -1
		for r := len(users) - 1; r >= 0; r-- {
			u := users[r]
			t.rank[u*nG+g] = r
			e := base + r
			t.sufTask[e], t.sufDur[e] = t.sufTask[e+1], t.sufDur[e+1]
			for _, cs := range ix.Global(u) {
				if d := cs.Duration; cs.SemPos == k && (d > t.sufDur[e] || d == t.sufDur[e] && d > 0 && u < bestAt) {
					t.sufTask[e], t.sufDur[e], bestAt = int(cs.Task), d, u
				}
			}
			procs := t.sufProcs[e*t.words : (e+1)*t.words]
			copy(procs, t.sufProcs[(e+1)*t.words:(e+2)*t.words])
			p := t.proc[u]
			procs[p/64] |= 1 << (p % 64)
		}
	}

	// Each task's sections on shared-memory semaphores.
	for i := range sys.Tasks {
		for _, cs := range ix.Global(i) {
			if t.remote[t.ord[cs.SemPos]] {
				continue
			}
			t.shmCount[i]++
			if cs.Duration > t.shmDur[i] {
				t.shmSem[i], t.shmDur[i] = int(cs.Sem), cs.Duration
			}
		}
	}

	// The time each task executes above each ordinal's gcs on its own
	// processor.
	t.above = t.ints.take(nG * n)
	for l := range sys.Tasks {
		prios, secs := t.row(t.gcsAt, t.proc[l]), t.row(t.time, l)
		for g, floor := range prios {
			for g2, d := range secs {
				if d != 0 && !t.remote[g2] && prios[g2] > floor {
					t.above[g*n+l] += d
				}
			}
		}
	}
	return nil
}

// bySync returns the remote gcs's synchronization processor sp serves,
// in system order.
func (t *table) bySync(sp int) []remoteGcs {
	return t.bySyncAll[t.syncAt[sp]:t.syncAt[sp+1]]
}

// lowerThan returns the suffix entry of shared-memory ordinal g below
// the user of rank r: the task and ticks of the longest section of a
// lower-priority user, and the processors of those users.
func (t *table) lowerThan(g, r int) (task.ID, int, []uint64) {
	e := t.sufStart[g] + r + 1
	return task.ID(t.sufTask[e]), t.sufDur[e], t.sufProcs[e*t.words : (e+1)*t.words]
}

// spinPart is what only MSRP and FMLP read beyond the common part.
type spinPart struct {
	// short marks, by ordinal, FMLP+'s short semaphores; split is
	// ceiling.Split's result by semaphore position.
	short, split []bool
	// By task position: MSRP's spin over all of the task's requests and
	// its longest non-preemptive span (spin plus section) with that
	// section's semaphore; FMLP's spin over the task's short requests,
	// and whether it has a long one. FMLP's longest section of each task
	// on each ordinal, at [i*len(pos)+g].
	spinAll           []int
	nonPreSem, nonPre []int
	spinShrt          []int
	suspends          []bool
	longest           []int
	// FMLP's boosted span of each ordinal on each processor at
	// [g*nProcs+q], the longest stretch the processor can execute at the
	// boost level on the semaphore's behalf (spin plus section for a
	// short semaphore, the section for a long one); its sum over the
	// ordinals per processor; and by ordinal the sum over every
	// processor that issues a section on it of that section plus its
	// grant delay.
	boosted   []int
	boostedOn []int
	reach     []int
}

// prepareMSRP builds t for MSRP's analysis of sys.
func (t *table) prepareMSRP(sys *task.System, opts Options) error {
	t.build(sys, opts, spinsInts(globals(sys), sys.NumProcs)+3*len(sys.Tasks), 0)
	t.buildSpins()
	ix := t.ix
	t.ceil.Build(sys, false)
	t.spinAll = t.ints.take(len(sys.Tasks))
	t.nonPreSem = t.ints.take(len(sys.Tasks))
	t.nonPre = t.ints.take(len(sys.Tasks))
	for i, ti := range sys.Tasks {
		for _, cs := range ix.Global(i) {
			s := t.spin(ti.Proc, t.ord[cs.SemPos])
			t.spinAll[i] += s
			if d := s + cs.Duration; d > t.nonPre[i] {
				t.nonPreSem[i], t.nonPre[i] = int(cs.Sem), d
			}
		}
	}
	return nil
}

// prepareFMLP builds t for FMLP's analysis of sys under opts.
func (t *table) prepareFMLP(sys *task.System, opts Options) error {
	nG, nP := globals(sys), sys.NumProcs
	t.build(sys, opts, 2*timeInts(len(sys.Tasks), nG)+spinsInts(nG, nP)+nG*nP+nP+nG+len(sys.Tasks), nG+len(sys.Tasks))
	t.buildTime()
	t.buildSpins()
	ix := t.ix
	t.ceil.Build(sys, false)
	t.split = ceiling.Split(t.split, sys)
	t.short = t.bools.take(nG)
	for g, k := range t.pos {
		t.short[g] = t.split[k]
	}

	// The grant delay of ordinal g on processor q is the boosted work
	// already in progress on q that a freshly granted holder can sit
	// behind: boostedOn[q] less g's own boosted span.
	t.boosted = t.ints.take(nG * nP)
	t.boostedOn = t.ints.take(nP)
	for g := range t.pos {
		for q := 0; q < nP; q++ {
			d := t.at[g*nP+q]
			if d > 0 && t.short[g] {
				d += t.spin(task.ProcID(q), g)
			}
			t.boosted[g*nP+q] = d
			t.boostedOn[q] += d
		}
	}
	t.reach = t.ints.take(nG)
	for g := range t.pos {
		for q := 0; q < nP; q++ {
			if d := t.at[g*nP+q]; d > 0 {
				t.reach[g] += d + t.grantDelay(task.ProcID(q), g)
			}
		}
	}

	t.spinShrt = t.ints.take(len(sys.Tasks))
	t.suspends = t.bools.take(len(sys.Tasks))
	t.longest = t.ints.take(len(sys.Tasks) * nG)
	for i, ti := range sys.Tasks {
		longest := t.row(t.longest, i)
		for _, cs := range ix.Global(i) {
			g := t.ord[cs.SemPos]
			longest[g] = max(longest[g], cs.Duration)
			if t.short[g] {
				t.spinShrt[i] += t.spin(ti.Proc, g)
			} else {
				t.suspends[i] = true
			}
		}
	}
	return nil
}

// grantDelay is FMLP's grant delay of ordinal g on processor q.
func (t *table) grantDelay(q task.ProcID, g int) int {
	return t.boostedOn[q] - t.boosted[g*t.nProcs+int(q)]
}

// shortSpin is FMLP's spin of one request on short ordinal g from proc:
// one section and its grant delay per other processor that issues one.
func (t *table) shortSpin(proc task.ProcID, g int) int {
	if d := t.at[g*t.nProcs+int(proc)]; d > 0 {
		return t.reach[g] - d - t.grantDelay(proc, g)
	}
	return t.reach[g]
}

// nextBit removes the lowest member from the set words and returns it,
// or -1 when the set is empty.
func nextBit(words []uint64) int {
	for w, bits64 := range words {
		if bits64 != 0 {
			words[w] &= bits64 - 1
			return w*64 + bits.TrailingZeros64(bits64)
		}
	}
	return -1
}
