package pcp

import "mpcp/internal/sim"

// PrioStacks keeps, for every job inside a critical section (or queued
// for one), the effective priorities to restore as its sections end,
// innermost last. Only such jobs have an entry, so a short scan finds
// one. An entry that empties is dropped; its storage stays at the end
// of the slice for the next job that needs one.
type PrioStacks struct {
	e []prioStack
}

type prioStack struct {
	j     *sim.Job
	prios []int
}

// Reset forgets every stack, keeping the storage.
func (s *PrioStacks) Reset() {
	for len(s.e) > 0 {
		s.drop(len(s.e) - 1)
	}
}

// find returns the index of j's entry, or -1.
//
//rtlint:hotpath
func (s *PrioStacks) find(j *sim.Job) int {
	for i := range s.e {
		if s.e[i].j == j {
			return i
		}
	}
	return -1
}

// Push records prio on top of j's stack.
//
//rtlint:hotpath
func (s *PrioStacks) Push(j *sim.Job, prio int) {
	i := s.find(j)
	if i < 0 {
		i = len(s.e)
		if i < cap(s.e) {
			s.e = s.e[:i+1]
			s.e[i].j = j
		} else {
			s.e = append(s.e, prioStack{j: j}) //rtlint:allow allocbudget grows to the most jobs ever inside a section at once
		}
	}
	s.e[i].prios = append(s.e[i].prios, prio) //rtlint:allow allocbudget an entry's storage is kept for reuse and grows to the deepest nesting
}

// Pop removes and returns the top of j's stack; ok is false when j has
// none. The entry is dropped when it empties.
//
//rtlint:hotpath
func (s *PrioStacks) Pop(j *sim.Job) (prio int, ok bool) {
	i := s.find(j)
	if i < 0 {
		return 0, false
	}
	st := s.e[i].prios
	prio = st[len(st)-1]
	s.e[i].prios = st[:len(st)-1]
	if len(st) == 1 {
		s.drop(i)
	}
	return prio, true
}

// Drop forgets j's stack.
//
//rtlint:hotpath
func (s *PrioStacks) Drop(j *sim.Job) {
	if i := s.find(j); i >= 0 {
		s.drop(i)
	}
}

// drop swaps entry i with the last one and shortens the slice, keeping
// the dropped entry's emptied storage beyond the length for reuse.
//
//rtlint:hotpath
func (s *PrioStacks) drop(i int) {
	last := len(s.e) - 1
	s.e[i], s.e[last] = s.e[last], s.e[i]
	s.e[last].j = nil
	s.e[last].prios = s.e[last].prios[:0]
	s.e = s.e[:last]
}
