package workload_test

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"testing"

	"mpcp/internal/ceiling"
	"mpcp/internal/task"
	"mpcp/internal/workload"
)

// generatePin is the SHA-256 of writeSystem over every pinConfigs
// system. It certifies that a change to how Generate builds a system
// leaves every generated field alone.
const generatePin = "19119752198c45c40ed33b2111c6487697e5170be923653950a48edbbd8d10df"

// pinVariants are the configuration corners the pin covers, each
// applied to a base of workload.Default.
var pinVariants = []struct {
	name string
	edit func(*workload.Config)
}{
	{"plain", func(*workload.Config) {}},
	{"stagger", func(c *workload.Config) { c.Stagger = true }},
	{"sporadic", func(c *workload.Config) { c.Sporadic = true }},
	{"sporadic-gap", func(c *workload.Config) { c.Sporadic, c.MinGapFrac = true, 0.8 }},
	{"jitter", func(c *workload.Config) { c.MaxJitterFrac = 0.15 }},
	{"hotspot", func(c *workload.Config) { c.Hotspot, c.GcsPerTask = true, [2]int{1, 3} }},
	{"min>max", func(c *workload.Config) { c.GcsPerTask, c.LcsPerTask = [2]int{3, 1}, [2]int{2, 0} }},
	{"cs-fixed", func(c *workload.Config) { c.CSTicks = [2]int{4, 4} }},
	{"no-global", func(c *workload.Config) { c.GlobalSems = 0 }},
	{"no-local", func(c *workload.Config) { c.LocalSemsPerProc = 0; c.LcsPerTask = [2]int{1, 2} }},
	{"negative-counts", func(c *workload.Config) {
		c.GlobalSems, c.LocalSemsPerProc, c.GcsPerTask = -1, -2, [2]int{-1, 2}
	}},
	{"wide", func(c *workload.Config) {
		c.GcsPerTask, c.LcsPerTask, c.CSTicks = [2]int{1, 3}, [2]int{1, 2}, [2]int{1, 9}
		c.UtilPerProc = 0.8
	}},
}

// pinConfigs visits 1–8 processors × 1–6 tasks per processor × four
// seeds × every pinVariants corner.
func pinConfigs(visit func(name string, cfg workload.Config)) {
	for procs := 1; procs <= 8; procs++ {
		for tpp := 1; tpp <= 6; tpp++ {
			for seed := int64(1); seed <= 4; seed++ {
				for _, v := range pinVariants {
					cfg := workload.Default(seed * 7919)
					cfg.NumProcs, cfg.TasksPerProc = procs, tpp
					v.edit(&cfg)
					visit(fmt.Sprintf("%s/p%d/t%d/s%d", v.name, procs, tpp, seed), cfg)
				}
			}
		}
	}
}

// writeSystem hashes every field Generate sets, by value.
func writeSystem(h hash.Hash, sys *task.System) {
	fmt.Fprintf(h, "system procs=%d seed=%d\n", sys.NumProcs, sys.ReleaseSeed)
	for _, t := range sys.Tasks {
		fmt.Fprintf(h, "task %d %q p%d T=%d O=%d P=%d D=%d min=%d J=%d body",
			t.ID, t.Name, t.Proc, t.Period, t.Offset, t.Priority, t.Deadline, t.MinInterarrival, t.Jitter)
		for _, seg := range t.Body {
			fmt.Fprintf(h, " %d:%d:%d", seg.Kind, seg.Duration, seg.Sem)
		}
		fmt.Fprintln(h)
	}
	for _, sem := range sys.Sems {
		fmt.Fprintf(h, "sem %d %q %v\n", sem.ID, sem.Name, sem.Global)
	}
}

// TestGeneratePinned pins every field of every system Generate returns
// over the pinConfigs grid.
func TestGeneratePinned(t *testing.T) {
	h := sha256.New()
	n := 0
	pinConfigs(func(name string, cfg workload.Config) {
		sys, err := workload.Generate(cfg)
		fmt.Fprintf(h, "%s err=%v\n", name, err)
		if err != nil {
			return
		}
		writeSystem(h, sys)
		n++
	})
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != generatePin {
		t.Errorf("generation digest over %d systems = %s, want %s", n, got, generatePin)
	}
}

// TestDefaultRemoteSplitIsEvenIDs: on every pinConfigs system, the
// hybrid protocol's default split (ceiling.Remote with a nil set) is
// exactly the global semaphores among IDs 2, 4, ..., GlobalSems, the
// set campaigns once passed explicitly. It holds because Generate
// numbers the global semaphores 1..GlobalSems and never marks a local
// one global.
func TestDefaultRemoteSplitIsEvenIDs(t *testing.T) {
	split := 0
	pinConfigs(func(name string, cfg workload.Config) {
		sys, err := workload.Generate(cfg)
		if err != nil {
			return
		}
		even := make(map[task.SemID]bool)
		for id := 2; id <= cfg.GlobalSems; id += 2 {
			even[task.SemID(id)] = true
		}
		for k, remote := range ceiling.Remote(nil, sys, ceiling.Mixed, nil) {
			sem := sys.Sems[k]
			want := sem.Global && even[sem.ID]
			if remote != want {
				t.Fatalf("%s: semaphore %d (global %v) remote %v, want %v", name, sem.ID, sem.Global, remote, want)
			}
			if remote {
				split++
			}
		}
	})
	if split == 0 {
		t.Error("no pinConfigs system has a remote semaphore, so the check is vacuous")
	}
}
