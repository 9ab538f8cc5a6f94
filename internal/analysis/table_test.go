package analysis_test

import (
	"fmt"
	"reflect"
	"testing"

	"mpcp/internal/analysis"
	"mpcp/internal/ceiling"
	"mpcp/internal/task"
	"mpcp/internal/workload"
)

// The reference below transcribes the per-task loops the composed, MSRP
// and FMLP analyses ran before they read a per-system table: every
// factor rescans the critical sections it sums, for every bounded task.
// It records each charge as the table-driven path logs it, skipping
// charges that add nothing, so the two can be compared term by term.

// refLog holds a reference run's bounds and terms.
type refLog struct {
	bounds map[task.ID]*analysis.Bound
	terms  map[task.ID][]analysis.Term
}

func (l *refLog) charge(b *analysis.Bound, t analysis.Term) {
	v := t.Count * t.Ticks
	switch t.Factor {
	case 1:
		b.LocalBlocking += v
	case 2:
		b.GlobalHeldByLower += v
	case 3:
		b.RemotePreemption += v
	case 4:
		b.BlockingProcGcs += v
	case 5:
		b.LowerLocalGcs += v
	default:
		b.DeferredPenalty += v
	}
	b.Total += v
	if v != 0 {
		l.terms[b.Task] = append(l.terms[b.Task], t)
	}
}

// refPerTask runs bound on every task of sys.
func refPerTask(sys *task.System, bound func(l *refLog, b *analysis.Bound, i int, ti *task.Task)) *refLog {
	l := &refLog{bounds: map[task.ID]*analysis.Bound{}, terms: map[task.ID][]analysis.Term{}}
	for i, ti := range sys.Tasks {
		b := &analysis.Bound{Task: ti.ID}
		bound(l, b, i, ti)
		l.bounds[ti.ID] = b
	}
	return l
}

func refInterferes(w int, tj *task.Task) int {
	t := tj.EffectiveMinInterarrival()
	if t <= 0 {
		return 0
	}
	return (w + tj.Jitter + t - 1) / t
}

func refLocalTerm(sys *task.System, tbl *ceiling.Table, ti *task.Task, opportunities int) analysis.Term {
	ix := sys.Index()
	var longest task.CriticalSection
	for _, k := range ix.OnProc(ti.Proc) {
		if sys.Tasks[k].Priority >= ti.Priority {
			continue
		}
		for _, cs := range ix.Local(k) {
			if tbl.LocalAt(cs.SemPos) >= ti.Priority && cs.Duration > longest.Duration {
				longest = cs
			}
		}
	}
	return analysis.Term{Factor: 1, Task: longest.Task, Sem: longest.Sem, OnSem: true, Count: opportunities, Ticks: longest.Duration}
}

func refLowerUsers(sys *task.System, users []int, prio int) []int {
	j := len(users)
	for j > 0 && sys.Tasks[users[j-1]].Priority < prio {
		j--
	}
	return users[j:]
}

type refRemoteGcs struct {
	owner *task.Task
	cs    task.CriticalSection
}

func (rg refRemoteGcs) agentTerm(factor int, ti *task.Task) analysis.Term {
	return analysis.Term{Factor: factor, Task: rg.owner.ID, Sem: rg.cs.Sem, OnSem: true, Agent: true,
		Count: refInterferes(ti.Period, rg.owner), Ticks: rg.cs.Duration}
}

func refCompose(sys *task.System, opts analysis.Options) (*refLog, error) {
	remote := opts.Remote
	if remote == nil {
		remote = make([]bool, len(sys.Sems))
	}
	assign, err := ceiling.SyncProcs(nil, sys, remote, opts.DPCPAssign)
	if err != nil {
		return nil, err
	}
	tbl := ceiling.Compute(sys, opts.GcsAtCeiling)
	ix := sys.Index()
	bySync := make([][]refRemoteGcs, sys.NumProcs)
	for i, t := range sys.Tasks {
		for _, cs := range ix.Global(i) {
			if remote[cs.SemPos] {
				sp := assign[cs.SemPos]
				bySync[sp] = append(bySync[sp], refRemoteGcs{owner: t, cs: cs})
			}
		}
	}
	shm := make([]bool, len(sys.Sems))
	usesSync := make([]bool, sys.NumProcs)
	blockers := make([]bool, sys.NumProcs)
	minBlocker := make([]int, sys.NumProcs)
	return refPerTask(sys, func(l *refLog, b *analysis.Bound, i int, ti *task.Task) {
		gcs := ix.Global(i)
		ng := len(gcs)
		l.charge(b, refLocalTerm(sys, tbl, ti, ng+1))

		clear(shm)
		clear(usesSync)
		for _, cs := range gcs {
			var worst task.CriticalSection
			if remote[cs.SemPos] {
				sp := assign[cs.SemPos]
				usesSync[sp] = true
				for _, rg := range bySync[sp] {
					if rg.owner.ID != ti.ID && rg.owner.Priority < ti.Priority && rg.cs.Duration > worst.Duration {
						worst = rg.cs
					}
				}
			} else {
				shm[cs.SemPos] = true
				worstAt := -1
				for _, k := range refLowerUsers(sys, ix.Users(cs.SemPos), ti.Priority) {
					for _, other := range ix.Global(k) {
						if other.SemPos == cs.SemPos && (other.Duration > worst.Duration || other.Duration == worst.Duration && k < worstAt) {
							worst, worstAt = other, k
						}
					}
				}
			}
			l.charge(b, analysis.Term{Factor: 2, Task: worst.Task, Sem: worst.Sem, OnSem: true, Agent: remote[cs.SemPos], Count: 1, Ticks: worst.Duration})
		}

		for j, tj := range sys.Tasks {
			if tj.Proc == ti.Proc || tj.Priority <= ti.Priority {
				continue
			}
			dur := 0
			for _, cs := range ix.Global(j) {
				if shm[cs.SemPos] {
					dur += cs.Duration
				}
			}
			l.charge(b, analysis.Term{Factor: 3, Task: tj.ID, Count: refInterferes(ti.Period, tj), Ticks: dur})
		}
		for sp, uses := range usesSync {
			if !uses {
				continue
			}
			for _, rg := range bySync[sp] {
				if rg.owner.ID != ti.ID && rg.owner.Priority > ti.Priority {
					l.charge(b, rg.agentTerm(3, ti))
				}
			}
		}

		clear(blockers)
		for _, cs := range gcs {
			if remote[cs.SemPos] {
				continue
			}
			for _, k := range refLowerUsers(sys, ix.Users(cs.SemPos), ti.Priority) {
				proc := sys.Tasks[k].Proc
				if proc == ti.Proc {
					continue
				}
				if prio := tbl.GcsAt(cs.SemPos, proc); !blockers[proc] || prio < minBlocker[proc] {
					blockers[proc], minBlocker[proc] = true, prio
				}
			}
		}
		for proc, blocked := range blockers {
			if !blocked {
				continue
			}
			for _, k := range ix.OnProc(task.ProcID(proc)) {
				dur := 0
				for _, cs := range ix.Global(k) {
					if !remote[cs.SemPos] && tbl.GcsAt(cs.SemPos, task.ProcID(proc)) > minBlocker[proc] {
						dur += cs.Duration
					}
				}
				tl := sys.Tasks[k]
				l.charge(b, analysis.Term{Factor: 4, Task: tl.ID, Count: refInterferes(ti.Period, tl), Ticks: dur})
			}
		}

		for _, k := range ix.OnProc(ti.Proc) {
			tk := sys.Tasks[k]
			if tk.Priority >= ti.Priority {
				continue
			}
			ngk := 0
			var longest task.CriticalSection
			for _, cs := range ix.Global(k) {
				if remote[cs.SemPos] {
					continue
				}
				ngk++
				if cs.Duration > longest.Duration {
					longest = cs
				}
			}
			l.charge(b, analysis.Term{Factor: 5, Task: tk.ID, Sem: longest.Sem, OnSem: true, Count: min(ng+1, 2*ngk), Ticks: longest.Duration})
		}
		for _, rg := range bySync[ti.Proc] {
			if rg.owner.ID != ti.ID {
				l.charge(b, rg.agentTerm(5, ti))
			}
		}

		if opts.DeferredPenalty {
			for _, j := range ix.OnProc(ti.Proc) {
				if tj := sys.Tasks[j]; tj.Priority > ti.Priority && len(ix.Global(j)) > 0 {
					l.charge(b, analysis.Term{Factor: 6, Task: tj.ID, Count: 1, Ticks: tj.WCET()})
				}
			}
		}
	}), nil
}

// refSpinTable holds, by processor and semaphore position, the longest
// global critical section on the semaphore issued from the processor,
// and by semaphore position the sum of those over every processor.
type refSpinTable struct {
	nSems   int
	longest []int
	total   []int
}

func newRefSpinTable(sys *task.System) *refSpinTable {
	ix := sys.Index()
	m := &refSpinTable{nSems: len(sys.Sems), longest: make([]int, sys.NumProcs*len(sys.Sems)), total: make([]int, len(sys.Sems))}
	for i, t := range sys.Tasks {
		row := m.longest[int(t.Proc)*m.nSems:]
		for _, cs := range ix.Global(i) {
			row[cs.SemPos] = max(row[cs.SemPos], cs.Duration)
		}
	}
	for k := range m.total {
		for q := 0; q < sys.NumProcs; q++ {
			m.total[k] += m.at(task.ProcID(q), k)
		}
	}
	return m
}

func (m *refSpinTable) at(q task.ProcID, k int) int { return m.longest[int(q)*m.nSems+k] }

func (m *refSpinTable) spin(proc task.ProcID, k int) int { return m.total[k] - m.at(proc, k) }

func refMSRP(sys *task.System, _ analysis.Options) (*refLog, error) {
	tbl := ceiling.Compute(sys, false)
	ix := sys.Index()
	maxDur := newRefSpinTable(sys)
	return refPerTask(sys, func(l *refLog, b *analysis.Bound, i int, ti *task.Task) {
		l.charge(b, refLocalTerm(sys, tbl, ti, 1))
		for _, cs := range ix.Global(i) {
			l.charge(b, analysis.Term{Factor: 3, Task: ti.ID, Sem: cs.Sem, OnSem: true, Count: 1, Ticks: maxDur.spin(ti.Proc, cs.SemPos)})
		}
		nonPreemptive := analysis.Term{Factor: 5}
		for _, j := range ix.OnProc(ti.Proc) {
			switch tj := sys.Tasks[j]; {
			case tj.Priority > ti.Priority:
				spin := 0
				for _, cs := range ix.Global(j) {
					spin += maxDur.spin(tj.Proc, cs.SemPos)
				}
				l.charge(b, analysis.Term{Factor: 4, Task: tj.ID, Count: refInterferes(ti.Period, tj), Ticks: spin})
			case tj.Priority < ti.Priority:
				for _, cs := range ix.Global(j) {
					if d := maxDur.spin(tj.Proc, cs.SemPos) + cs.Duration; d > nonPreemptive.Ticks {
						nonPreemptive = analysis.Term{Factor: 5, Task: tj.ID, Sem: cs.Sem, OnSem: true, Count: 1, Ticks: d}
					}
				}
			}
		}
		l.charge(b, nonPreemptive)
	}), nil
}

func refFMLP(sys *task.System, opts analysis.Options) (*refLog, error) {
	short := ceiling.Split(nil, sys)
	tbl := ceiling.Compute(sys, false)
	ix := sys.Index()
	maxDur := newRefSpinTable(sys)
	boostedSpan := func(q task.ProcID, k int) int {
		d := maxDur.at(q, k)
		if d == 0 || !short[k] {
			return d
		}
		return maxDur.spin(q, k) + d
	}
	boostedOn := make([]int, sys.NumProcs)
	for q := range boostedOn {
		for k := range sys.Sems {
			boostedOn[q] += boostedSpan(task.ProcID(q), k)
		}
	}
	grantDelay := func(q task.ProcID, k int) int {
		return boostedOn[q] - boostedSpan(q, k)
	}
	return refPerTask(sys, func(l *refLog, b *analysis.Bound, i int, ti *task.Task) {
		nLong := 0
		for _, cs := range ix.Global(i) {
			k := cs.SemPos
			if short[k] {
				spin := 0
				for q := 0; q < sys.NumProcs; q++ {
					if d := maxDur.at(task.ProcID(q), k); task.ProcID(q) != ti.Proc && d > 0 {
						spin += d + grantDelay(task.ProcID(q), k)
					}
				}
				l.charge(b, analysis.Term{Factor: 3, Task: ti.ID, Sem: cs.Sem, OnSem: true, Count: 1, Ticks: spin})
				continue
			}
			nLong++
			for _, u := range ix.Users(k) {
				if u == i {
					continue
				}
				dur := 0
				for _, other := range ix.Global(u) {
					if other.SemPos == k {
						dur = max(dur, other.Duration)
					}
				}
				if tk := sys.Tasks[u]; dur > 0 {
					l.charge(b, analysis.Term{Factor: 2, Task: tk.ID, Sem: cs.Sem, OnSem: true,
						Count: refInterferes(ti.Period, tk), Ticks: dur + grantDelay(tk.Proc, k)})
				}
			}
		}
		l.charge(b, refLocalTerm(sys, tbl, ti, nLong+1))

		for _, j := range ix.OnProc(ti.Proc) {
			if j == i {
				continue
			}
			tj := sys.Tasks[j]
			spin, boosted, suspends := 0, 0, false
			for _, cs := range ix.Global(j) {
				boosted += cs.Duration
				if short[cs.SemPos] {
					spin += maxDur.spin(tj.Proc, cs.SemPos)
				} else {
					suspends = true
				}
			}
			if tj.Priority > ti.Priority {
				l.charge(b, analysis.Term{Factor: 4, Task: tj.ID, Count: refInterferes(ti.Period, tj), Ticks: spin})
				if opts.DeferredPenalty && suspends {
					l.charge(b, analysis.Term{Factor: 6, Task: tj.ID, Count: 1, Ticks: tj.WCET()})
				}
				continue
			}
			l.charge(b, analysis.Term{Factor: 5, Task: tj.ID, Count: refInterferes(ti.Period, tj), Ticks: spin + boosted})
		}
	}), nil
}

// diffSystems generates the differential test's systems: 2 to 8
// processors, 3 to 6 tasks each with 1–3 gcs, in four release shapes
// (periodic, sporadic, jittered, hotspot), several seeds each, and two
// systems of 66 processors. Short critical sections make equal
// durations, and so tie-breaks, common.
func diffSystems(t *testing.T, visit func(name string, sys *task.System)) {
	t.Helper()
	shapes := []string{"periodic", "sporadic", "jittered", "hotspot"}
	for procs := 2; procs <= 8; procs++ {
		for si, shape := range shapes {
			for seed := int64(1); seed <= 4; seed++ {
				cfg := workload.Default(seed*31 + int64(procs*7+si))
				cfg.NumProcs = procs
				cfg.TasksPerProc = 3 + int(seed)%4
				cfg.GcsPerTask = [2]int{1, 3}
				cfg.CSTicks = [2]int{1, 4}
				cfg.UtilPerProc = 0.3 + 0.1*float64(seed)
				switch shape {
				case "sporadic":
					cfg.Sporadic = true
				case "jittered":
					cfg.MaxJitterFrac = 0.2
				case "hotspot":
					cfg.Hotspot = true
				}
				sys, err := workload.Generate(cfg)
				if err != nil {
					t.Fatalf("%s procs %d seed %d: %v", shape, procs, seed, err)
				}
				visit(fmt.Sprintf("%s/p%d/s%d", shape, procs, seed), sys)
			}
		}
	}
	// More than 64 processors and tasks: the processor and task sets
	// span several words.
	for seed := int64(1); seed <= 2; seed++ {
		cfg := workload.Default(seed)
		cfg.NumProcs = 66
		cfg.TasksPerProc = 2
		cfg.GcsPerTask = [2]int{1, 3}
		cfg.CSTicks = [2]int{1, 4}
		sys, err := workload.Generate(cfg)
		if err != nil {
			t.Fatalf("wide seed %d: %v", seed, err)
		}
		visit(fmt.Sprintf("wide/p66/s%d", seed), sys)
	}
}

// diffRemotes returns the remote sets the composed analysis is compared
// under: none (MPCP), every global semaphore (DPCP), with and without an
// explicit synchronization-processor assignment, and every other global
// semaphore (a hybrid).
func diffRemotes(sys *task.System) map[string]analysis.Options {
	all := make([]bool, len(sys.Sems))
	half := make([]bool, len(sys.Sems))
	assign := map[task.SemID]task.ProcID{}
	g := 0
	for k, sem := range sys.Sems {
		if sem.Global {
			all[k], half[k] = true, g%2 == 0
			assign[sem.ID] = task.ProcID((g + 1) % sys.NumProcs)
			g++
		}
	}
	return map[string]analysis.Options{
		"none":     {},
		"all":      {Remote: all},
		"assigned": {Remote: all, DPCPAssign: assign},
		"subset":   {Remote: half},
	}
}

// TestTableMatchesRescan checks that the table-driven analyses produce,
// bound for bound and term for term in charge order, what rescanning
// every task's critical sections for every bounded task produces: the
// composed analysis under every remote set, with and without gcs's at
// the ceiling and the deferred penalty, and MSRP and FMLP with and
// without the penalty.
func TestTableMatchesRescan(t *testing.T) {
	cases := 0
	check := func(label string, a *analysis.Analysis, sys *task.System, opts analysis.Options, ref func(*task.System, analysis.Options) (*refLog, error)) {
		t.Helper()
		want, err := ref(sys, opts)
		if err != nil {
			t.Fatalf("%s: reference: %v", label, err)
		}
		got, err := a.Bounds(sys, opts)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		logged, terms, err := analysis.BoundsLogged(a, sys, opts)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for _, tk := range sys.Tasks {
			w := want.bounds[tk.ID]
			if g := got[tk.ID]; g == nil || *g != *w {
				t.Errorf("%s task %d: Bounds %+v, rescan %+v", label, tk.ID, g, w)
			}
			if g := logged[tk.ID]; *g != *w {
				t.Errorf("%s task %d: logged bound %+v, rescan %+v", label, tk.ID, g, w)
			}
			if !reflect.DeepEqual(terms[tk.ID], want.terms[tk.ID]) {
				t.Errorf("%s task %d: terms\n%+v\nrescan\n%+v", label, tk.ID, terms[tk.ID], want.terms[tk.ID])
			}
		}
		cases++
	}
	diffSystems(t, func(name string, sys *task.System) {
		for _, penalty := range []bool{false, true} {
			for rname, opts := range diffRemotes(sys) {
				for _, atCeiling := range []bool{false, true} {
					opts.GcsAtCeiling, opts.DeferredPenalty = atCeiling, penalty
					check(fmt.Sprintf("%s composed remote=%s ceil=%v penalty=%v", name, rname, atCeiling, penalty), &analysis.Composed, sys, opts, refCompose)
				}
			}
			opts := analysis.Options{DeferredPenalty: penalty}
			check(fmt.Sprintf("%s msrp penalty=%v", name, penalty), &analysis.MSRP, sys, opts, refMSRP)
			check(fmt.Sprintf("%s fmlp penalty=%v", name, penalty), &analysis.FMLP, sys, opts, refFMLP)
		}
	})
	t.Logf("%d (system, analysis, options) cases", cases)
}
