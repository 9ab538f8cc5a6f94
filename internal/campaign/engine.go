package campaign

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"mpcp/internal/obs"
	"mpcp/internal/obs/span"
)

// SpanExecutor is implemented by executors that can thread the
// campaign's span context through their own instrumentation
// (dist.RemoteShards propagates it to the coordinator over the
// X-Rt-Trace header). Run installs the tracer and the campaign.run
// root context before Execute.
type SpanExecutor interface {
	SetSpan(tr *span.Tracer, parent span.Context)
}

// Options tunes a campaign run.
type Options struct {
	// Workers bounds the worker pool; <= 0 means runtime.NumCPU().
	Workers int

	// ResultsPath is the JSONL result file. While the campaign runs it
	// doubles as the checkpoint: every completed point is appended and
	// flushed immediately, so a killed campaign loses at most in-flight
	// points. On successful completion the file is atomically rewritten
	// in spec order, making it byte-identical across worker counts.
	// Empty disables persistence (and resume).
	ResultsPath string

	// Resume loads ResultsPath before running and skips points that
	// already have a clean, complete result. Failed or truncated points
	// are re-run.
	Resume bool

	// Progress, when set, receives a snapshot after every completed
	// point. Calls arrive from the collector goroutine, never
	// concurrently. The last snapshot of a run is always terminal:
	// Done == Total and ETA == 0, even when every point was satisfied
	// from the resume checkpoint.
	Progress func(Progress)

	// Executor evaluates the outstanding points; nil means a LocalPool
	// with Workers goroutines. Checkpointing, resume, progress and the
	// spec-order result rewrite are executor-independent, so swapping in
	// dist.RemoteShards changes where points run, never what the result
	// file contains.
	Executor Executor

	// Tracer, when set, emits campaign spans: one campaign.run root
	// (keyed by spec name) plus a campaign.point span per evaluated
	// point for local executors; executors implementing SpanExecutor
	// (dist.RemoteShards) thread the root context through the service
	// instead. Nil-safe; span identity never depends on timing.
	Tracer *span.Tracer

	// Span, when valid, parents the campaign.run root span — e.g. a
	// CLI-level span or a test-fixed context. Zero means the root
	// starts its own trace derived from the spec name.
	Span span.Context

	// Metrics, when set, receives live campaign instrumentation:
	// campaign_points_total / _skipped / _done / _failures counters, a
	// campaign_point_us latency histogram (observed worker-side, so it
	// reflects true per-point cost under concurrency) and a
	// campaign_points_per_sec gauge, plus the simulator fast-path
	// odometer (sim_ticks_total / sim_ticks_skipped counters and the
	// sim_speedup_ratio gauge) accumulated over every confirmation run.
	// Timing lives only here — point results stay deterministic and
	// byte-identical across runs.
	Metrics *obs.Registry
}

// Progress is a campaign progress snapshot.
type Progress struct {
	Done, Total int
	// Skipped counts points satisfied from the resume checkpoint.
	Skipped int
	// Failures is the running sum of PointResult.Failures.
	Failures int
	// PointsPerSec is the completion rate of this run (excluding
	// skipped points); ETA extrapolates it over the remaining points.
	PointsPerSec float64
	ETA          time.Duration
	Last         *PointResult
}

// Run executes the campaign described by spec. Results are complete (one
// per point, in spec order) and deterministic: the same spec yields the
// same Campaign regardless of Workers. Per-point failures are recorded
// in the results, not returned as errors; err is reserved for spec
// validation and I/O problems.
func Run(spec *Spec, opts Options) (*Campaign, error) {
	spec.FillDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	points := spec.Points()

	done := make(map[string]*PointResult)
	if opts.Resume && opts.ResultsPath != "" {
		prev, err := loadResults(opts.ResultsPath)
		if err != nil {
			return nil, err
		}
		valid := make(map[string]bool, len(points))
		for _, pt := range points {
			valid[pt.Key] = true
		}
		for _, r := range prev {
			// A checkpointed result only satisfies a point if it is
			// still in the grid, ran the full trial count and did not
			// fail; anything else is re-run.
			if valid[r.Key] && r.Trials == spec.SeedsPerPoint && r.Err == "" {
				done[r.Key] = r
			}
		}
	}

	var todo []Point
	for _, pt := range points {
		if _, ok := done[pt.Key]; !ok {
			todo = append(todo, pt)
		}
	}

	var checkpoint *bufio.Writer
	var checkpointFile *os.File
	if opts.ResultsPath != "" {
		if dir := filepath.Dir(opts.ResultsPath); dir != "." && dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, fmt.Errorf("campaign: %w", err)
			}
		}
		var f *os.File
		var err error
		if opts.Resume {
			f, err = OpenAppend(opts.ResultsPath)
		} else {
			f, err = os.OpenFile(opts.ResultsPath, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
		}
		if err != nil {
			return nil, fmt.Errorf("campaign: %w", err)
		}
		checkpointFile = f
		checkpoint = bufio.NewWriter(f)
	}

	// Fan out over the executor. The collect callback is the only
	// writer of done/checkpoint and Execute guarantees it runs on a
	// single goroutine, so no locking is needed; executors only compute.
	exec := opts.Executor
	if exec == nil {
		exec = &LocalPool{Workers: workers, Metrics: opts.Metrics}
	}
	root := opts.Tracer.Start(opts.Span, "campaign.run", spec.Name,
		span.A("points", strconv.Itoa(len(points))),
		span.A("skipped", strconv.Itoa(len(done))))
	if se, ok := exec.(SpanExecutor); ok {
		se.SetSpan(opts.Tracer, root.Context())
	}
	defer root.End()
	start := time.Now() //rtlint:allow determinism wall-clock feeds Progress/Metrics timing only, never point results
	prog := Progress{Total: len(points), Skipped: len(done), Done: len(done)}
	// Iterate the spec-ordered points, not the done map, so progress
	// accounting never depends on map iteration order.
	for _, pt := range points {
		if r := done[pt.Key]; r != nil {
			prog.Failures += r.Failures()
		}
	}
	opts.Metrics.Counter("campaign_points_total").Add(int64(len(points)))
	opts.Metrics.Counter("campaign_points_skipped").Add(int64(len(done)))
	completed := 0
	var ioErr error
	var execErr error
	collect := func(r *PointResult) {
		done[r.Key] = r
		completed++
		opts.Metrics.Counter("campaign_points_done").Inc()
		opts.Metrics.Counter("campaign_failures").Add(int64(r.Failures()))
		if checkpoint != nil && ioErr == nil {
			if err := writeResult(checkpoint, r); err != nil {
				ioErr = err
			} else if err := checkpoint.Flush(); err != nil {
				ioErr = err
			}
		}
		if opts.Progress != nil {
			prog.Done = prog.Skipped + completed
			prog.Failures += r.Failures()
			elapsed := time.Since(start).Seconds()
			if elapsed > 0 {
				prog.PointsPerSec = float64(completed) / elapsed
			}
			if prog.PointsPerSec > 0 {
				remaining := float64(prog.Total-prog.Done) / prog.PointsPerSec
				prog.ETA = time.Duration(remaining * float64(time.Second)).Round(time.Second)
			}
			prog.Last = r
			opts.Progress(prog)
		}
	}
	if len(todo) > 0 {
		execErr = exec.Execute(spec, todo, collect)
	}
	if elapsed := time.Since(start).Seconds(); elapsed > 0 {
		opts.Metrics.Gauge("campaign_points_per_sec").Set(float64(completed) / elapsed)
	}
	// When every point came from the checkpoint the loop above never
	// fires; still deliver the terminal snapshot so consumers always see
	// Done == Total with ETA 0. (With completed > 0 the last per-point
	// snapshot is already terminal.)
	if opts.Progress != nil && completed == 0 && execErr == nil {
		prog.Done = prog.Skipped
		prog.ETA = 0
		opts.Progress(prog)
	}
	if checkpointFile != nil {
		if err := checkpointFile.Close(); err != nil && ioErr == nil {
			ioErr = err
		}
	}
	if ioErr != nil {
		return nil, fmt.Errorf("campaign: checkpoint: %w", ioErr)
	}
	// An executor error aborts the campaign; whatever was collected is
	// already checkpointed, so a -resume re-run picks up where it died.
	if execErr != nil {
		return nil, fmt.Errorf("campaign: executor: %w", execErr)
	}

	c := &Campaign{Spec: spec}
	for _, pt := range points {
		c.Results = append(c.Results, done[pt.Key])
	}
	// Rewrite the result file in spec order (atomically, via rename) so
	// the final artifact is byte-identical regardless of worker count or
	// resume history.
	if opts.ResultsPath != "" {
		if err := writeFinal(opts.ResultsPath, c.Results); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func writeResult(w *bufio.Writer, r *PointResult) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	if _, err := w.Write(line); err != nil {
		return err
	}
	return w.WriteByte('\n')
}

// OpenAppend opens the JSONL checkpoint at path for appending, creating
// it if missing. A crash mid-append can leave the last line torn; that
// unterminated tail is cut off first, so the next record starts on a line
// of its own instead of fusing with the fragment into a line no restore
// can parse.
func OpenAppend(path string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(f)
	if err == nil {
		if keep := bytes.LastIndexByte(data, '\n') + 1; keep < len(data) {
			err = f.Truncate(int64(keep))
		}
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("trim torn tail of %s: %w", path, err)
	}
	return f, nil
}

// loadResults reads a JSONL checkpoint, keeping the last entry per key
// (a resumed run may have appended a fresh result for a re-run point).
// Unparsable lines (e.g. a torn final write after a crash) are skipped.
func loadResults(path string) ([]*PointResult, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("campaign: resume: %w", err)
	}
	defer f.Close()
	byKey := make(map[string]*PointResult)
	var order []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		var r PointResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil || r.Key == "" {
			continue
		}
		if _, seen := byKey[r.Key]; !seen {
			order = append(order, r.Key)
		}
		byKey[r.Key] = &r
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("campaign: resume: %w", err)
	}
	out := make([]*PointResult, 0, len(order))
	for _, k := range order {
		out = append(out, byKey[k])
	}
	return out, nil
}

// writeFinal atomically replaces path with the results in spec order.
func writeFinal(path string, results []*PointResult) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	w := bufio.NewWriter(f)
	for _, r := range results {
		if r == nil {
			continue
		}
		if err := writeResult(w, r); err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("campaign: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("campaign: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("campaign: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("campaign: %w", err)
	}
	return nil
}
