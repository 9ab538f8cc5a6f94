// Command rttrace renders a JSONL trace stream written by rtsim
// -trace-stream: a per-processor Gantt chart, invariant checks, blocking
// attribution against the Section 5.1 taxonomy, and optionally the raw
// event log.
//
// With -timeline it instead merges span streams (rtsweep -spans,
// rtsweepd -spans) into Chrome trace-event JSON openable in
// https://ui.perfetto.dev — see docs/observability.md.
//
// Usage:
//
//	rttrace -config system.json -trace run.jsonl [-from 0] [-to 60] [-events]
//	rttrace -config system.json -trace run.jsonl -blocking [-protocol mpcp]
//	rttrace -timeline -out timeline.json coord-spans.jsonl worker-spans.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mpcp/internal/analysis"
	"mpcp/internal/config"
	"mpcp/internal/obs"
	"mpcp/internal/obs/span"
	"mpcp/internal/registry"
	"mpcp/internal/task"
	"mpcp/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rttrace:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rttrace", flag.ContinueOnError)
	var (
		configPath = fs.String("config", "", "JSON workload the trace was produced from (required)")
		tracePath  = fs.String("trace", "", "JSONL trace stream written by rtsim -trace-stream (required)")
		from       = fs.Int("from", 0, "first tick of the chart")
		to         = fs.Int("to", 0, "last tick of the chart (0 = trace horizon)")
		events     = fs.Bool("events", false, "print the event log")
		blocking   = fs.Bool("blocking", false, "attribute every waiting tick to the Section 5.1 blocking taxonomy")
		protoName  = fs.String("protocol", "", "with -blocking: compare measured blocking to this protocol's analytical bound ("+strings.Join(registry.Analyzable(), ", ")+")")
		horizon    = fs.Int("horizon", 0, "simulated horizon in ticks (0 = one past the last trace record)")
		metricsOut = fs.String("metrics", "", "write a metrics snapshot derived from the trace as JSON to this file")
		timeline   = fs.Bool("timeline", false, "merge the span-stream JSONL files given as arguments into Chrome trace-event JSON (Perfetto)")
		timelineTo = fs.String("out", "", "with -timeline: output file (default stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *timeline {
		return runTimeline(out, *timelineTo, fs.Args())
	}
	if *configPath == "" || *tracePath == "" {
		return fmt.Errorf("missing -config or -trace")
	}

	sys, err := config.Load(*configPath)
	if err != nil {
		return err
	}
	log, err := loadTrace(*tracePath)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "trace: %d events, %d execution ticks, horizon %d\n\n",
		len(log.Events), len(log.Execs), log.Horizon())
	fmt.Fprint(out, log.Summary())
	fmt.Fprintln(out)
	fmt.Fprint(out, log.Gantt(sys, *from, *to))

	obs.PrintInvariants(out, log, sys.NumProcs)

	endTick := *horizon
	if endTick <= 0 {
		endTick = log.Horizon()
	}

	var rep *obs.Report
	if *blocking || *metricsOut != "" {
		if rep, err = obs.Attribute(log, sys, endTick); err != nil {
			return err
		}
	}
	if *blocking {
		var bounds map[task.ID]*analysis.Bound
		if *protoName != "" {
			bounds, err = registry.Analyze(*protoName, sys, registry.Opts{DeferredPenalty: true})
			if err != nil {
				return fmt.Errorf("-protocol: %w", err)
			}
		}
		printBlocking(out, rep, bounds)
	}

	if *metricsOut != "" {
		if err := obs.WriteTraceSnapshot(out, *metricsOut, obs.NewRegistry(), log, sys, rep); err != nil {
			return err
		}
	}

	if *events {
		fmt.Fprintln(out)
		for _, e := range log.Events {
			fmt.Fprintln(out, e)
		}
	}
	return nil
}

// runTimeline merges one or more span-stream JSONL files into one
// Chrome trace-event JSON document. Streams from different processes
// (coordinator + workers) share trace and span IDs, so concatenating
// them reassembles the distributed span tree.
func runTimeline(out io.Writer, outPath string, paths []string) error {
	if len(paths) == 0 {
		return fmt.Errorf("-timeline needs at least one span-stream file argument")
	}
	var spans []span.Span
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		ss, err := span.ReadStream(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		spans = append(spans, ss...)
	}

	if outPath == "" {
		return span.WriteTimeline(out, spans)
	}
	f, err := os.Create(outPath)
	if err != nil {
		return err
	}
	if err := span.WriteTimeline(f, spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(out, "timeline with %d span(s) written to %s\n", len(spans), outPath)
	return nil
}

// loadTrace reads a JSONL trace stream (rtsim -trace-stream).
func loadTrace(path string) (*trace.Log, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.ReadStream(f)
}

func printBlocking(out io.Writer, rep *obs.Report, bounds map[task.ID]*analysis.Bound) {
	fmt.Fprintf(out, "\nblocking attribution over %d ticks (Section 5.1 taxonomy):\n", rep.EndTick)
	fmt.Fprintf(out, "%-6s %-5s %-8s %-8s %-8s %-7s %-8s %-8s %-8s %-8s\n",
		"task", "jobs", "running", "remote", "preempt", "local", "globWait", "spin", "gcsInv", "inv")
	for _, ta := range rep.Tasks {
		fmt.Fprintf(out, "%-6d %-5d %-8d %-8d %-8d %-7d %-8d %-8d %-8d %-8d\n",
			ta.Task, ta.Jobs, ta.Running, ta.RemoteExec, ta.Preemption,
			ta.LocalBlocking, ta.GlobalWait, ta.Spin, ta.GcsInversion, ta.Inversion)
	}
	if bounds == nil {
		return
	}
	fmt.Fprintf(out, "\nmeasured worst-case blocking vs analytical bound:\n")
	fmt.Fprintf(out, "%-6s %-10s %-8s %-8s\n", "task", "measured", "bound", "within")
	for _, row := range obs.CompareBounds(rep, bounds) {
		within := "yes"
		if !row.Within {
			within = "NO"
		}
		fmt.Fprintf(out, "%-6d %-10d %-8d %-8s\n", row.Task, row.Measured, row.Bound, within)
	}
}
