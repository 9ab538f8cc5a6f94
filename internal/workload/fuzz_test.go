package workload_test

import (
	"slices"
	"testing"

	"mpcp/internal/task"
	"mpcp/internal/workload"
)

// fuzzMenus are the period menus FuzzGenerate draws from: the default
// one, a short harmonic one, one whose periods clamp every WCET, and a
// single period.
var fuzzMenus = [][]int{{100, 200, 300, 400, 600, 1200}, {10, 20, 40}, {1, 2, 3}, {7}}

// fuzzConfig maps fuzzed bytes onto a small configuration: 1–8
// processors of 1–8 tasks, -2–5 global and -2–3 local semaphores per
// processor (a negative count means none), section counts of -2–5 and
// lengths of 0–15 whose minimum may exceed their maximum, and every
// release-model switch.
func fuzzConfig(seed int64, procs, tpp, util, gsems, lsems, gcs, lcs, cs, flags, gap, jitter uint8) workload.Config {
	return workload.Config{
		Seed:             seed,
		NumProcs:         1 + int(procs%8),
		TasksPerProc:     1 + int(tpp%8),
		UtilPerProc:      float64(1+util%99) / 100,
		Periods:          fuzzMenus[int(flags>>3)%len(fuzzMenus)],
		GlobalSems:       int(gsems%8) - 2,
		LocalSemsPerProc: int(lsems%6) - 2,
		GcsPerTask:       [2]int{int(gcs>>4)&7 - 2, int(gcs)&7 - 2},
		LcsPerTask:       [2]int{int(lcs>>4)&7 - 2, int(lcs)&7 - 2},
		CSTicks:          [2]int{int(cs >> 4), int(cs & 15)},
		Hotspot:          flags&1 != 0,
		Stagger:          flags&2 != 0,
		Sporadic:         flags&4 != 0,
		MinGapFrac:       float64(gap%101) / 100,
		MaxJitterFrac:    float64(jitter%101) / 100,
	}
}

// FuzzGenerate checks Generate field by field against referenceGenerate
// over fuzzed configurations: the same error, or systems equal in every
// field Generate sets.
func FuzzGenerate(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(3), uint8(49), uint8(5), uint8(4), uint8(0x33), uint8(0x23), uint8(0x26), uint8(0), uint8(0), uint8(0))
	f.Add(int64(7), uint8(7), uint8(5), uint8(69), uint8(5), uint8(4), uint8(0x35), uint8(0x23), uint8(0x26), uint8(0x07), uint8(30), uint8(10))
	f.Add(int64(-3), uint8(1), uint8(7), uint8(90), uint8(0), uint8(1), uint8(0x52), uint8(0x14), uint8(0x44), uint8(0x0c), uint8(100), uint8(100))
	f.Add(int64(42), uint8(0), uint8(0), uint8(10), uint8(2), uint8(5), uint8(0x00), uint8(0x44), uint8(0x00), uint8(0x1a), uint8(0), uint8(5))
	f.Add(int64(5), uint8(2), uint8(2), uint8(40), uint8(1), uint8(0), uint8(0x35), uint8(0x35), uint8(0x26), uint8(0x02), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, procs, tpp, util, gsems, lsems, gcs, lcs, cs, flags, gap, jitter uint8) {
		cfg := fuzzConfig(seed, procs, tpp, util, gsems, lsems, gcs, lcs, cs, flags, gap, jitter)
		got, gotErr := workload.Generate(cfg)
		want, wantErr := referenceGenerate(cfg)
		if gotErr != nil || wantErr != nil {
			if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
				t.Fatalf("%+v: Generate error %v, reference error %v", cfg, gotErr, wantErr)
			}
			return
		}
		if diff := systemDiff(got, want); diff != "" {
			t.Fatalf("%+v: %s", cfg, diff)
		}
	})
}

// systemDiff names the first field in which generated systems a and b
// differ, or returns "".
func systemDiff(a, b *task.System) string {
	if a.NumProcs != b.NumProcs || a.ReleaseSeed != b.ReleaseSeed || !a.Validated() || !b.Validated() {
		return "system header differs"
	}
	if len(a.Tasks) != len(b.Tasks) || len(a.Sems) != len(b.Sems) {
		return "task or semaphore count differs"
	}
	for i, ta := range a.Tasks {
		tb := b.Tasks[i]
		if ta.ID != tb.ID || ta.Name != tb.Name || ta.Proc != tb.Proc || ta.Period != tb.Period ||
			ta.Deadline != tb.Deadline || ta.Offset != tb.Offset || ta.Priority != tb.Priority ||
			ta.MinInterarrival != tb.MinInterarrival || ta.Jitter != tb.Jitter {
			return "task " + ta.Name + " differs: " + tb.Name
		}
		if !slices.Equal(ta.Body, tb.Body) {
			return "task " + ta.Name + " body differs"
		}
		if len(ta.Body) != cap(ta.Body) {
			return "task " + ta.Name + " body is not capped"
		}
	}
	for k, sa := range a.Sems {
		if sb := b.Sems[k]; *sa != *sb {
			return "semaphore " + sa.Name + " differs: " + sb.Name
		}
	}
	return ""
}
