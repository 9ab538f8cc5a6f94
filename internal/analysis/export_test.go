package analysis

import "mpcp/internal/task"

// Term is a logged term with its fields exported, for the external
// tests.
type Term struct {
	Factor int
	Task   task.ID
	Sem    task.SemID
	OnSem  bool
	Agent  bool
	Count  int
	Ticks  int
}

// BoundsLogged bounds every task of sys under a one at a time with a
// term log, as Explain bounds its task, and returns each task's bound
// and terms in charge order.
func BoundsLogged(a *Analysis, sys *task.System, opts Options) (map[task.ID]*Bound, map[task.ID][]Term, error) {
	if err := checkAnalyzable(sys); err != nil {
		return nil, nil, err
	}
	var tbl table
	if err := a.prepare(&tbl, sys, opts); err != nil {
		return nil, nil, err
	}
	bounds := make(map[task.ID]*Bound, len(sys.Tasks))
	terms := make(map[task.ID][]Term, len(sys.Tasks))
	for i, ti := range sys.Tasks {
		b := &Bound{Task: ti.ID}
		var log termLog
		a.bound(&tbl, &log, b, i)
		bounds[ti.ID] = b
		for _, t := range log {
			terms[ti.ID] = append(terms[ti.ID], Term{t.factor, t.task, t.sem, t.onSem, t.agent, t.count, t.ticks})
		}
	}
	return bounds, terms, nil
}
