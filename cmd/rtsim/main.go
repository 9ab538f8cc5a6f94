// Command rtsim simulates a workload (JSON description, see
// internal/config) under a chosen synchronization protocol and reports
// per-task statistics, optionally with a Gantt chart and event log.
//
// Usage:
//
//	rtsim -config system.json [-protocol mpcp] [-horizon N] [-gantt] [-events] [-gantt-to N]
//	rtsim -config system.json -trace-stream run.jsonl -metrics run-metrics.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"mpcp/internal/config"
	"mpcp/internal/obs"
	"mpcp/internal/registry"
	"mpcp/internal/sim"
	"mpcp/internal/task"
	"mpcp/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rtsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rtsim", flag.ContinueOnError)
	var (
		configPath = fs.String("config", "", "path to the JSON workload description (required)")
		protoName  = fs.String("protocol", "mpcp", "protocol: "+strings.Join(registry.Names(), ", "))
		horizon    = fs.Int("horizon", 0, "ticks to simulate (0 = one hyperperiod)")
		gantt      = fs.Bool("gantt", false, "print a per-processor execution chart")
		ganttTo    = fs.Int("gantt-to", 60, "last tick of the chart")
		events     = fs.Bool("events", false, "print the full event log")
		checks     = fs.Bool("check", true, "verify mutual exclusion and gcs-preemption invariants")
		streamOut  = fs.String("trace-stream", "", "stream the trace as JSONL to this file while running")
		metricsOut = fs.String("metrics", "", "write a metrics snapshot (responses, semaphores, utilization, blocking attribution) as JSON to this file")
		reference  = fs.Bool("reference", false, "use the single-tick reference stepper instead of the event-horizon fast path (identical output, slower)")
		relSeed    = fs.Int64("release-seed", 0, "seed for sporadic-gap and release-jitter draws (0 = the workload's own releaseSeed)")
		overload   = fs.String("overload", "continue", "deadline-miss semantics: continue (record the miss, keep running) or abort (kill the job at its deadline)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *configPath == "" {
		return fmt.Errorf("missing -config")
	}

	sys, err := config.Load(*configPath)
	if err != nil {
		return err
	}
	p, err := registry.New(*protoName, registry.Opts{})
	if err != nil {
		return err
	}

	var policy sim.OverloadPolicy
	switch *overload {
	case "continue":
		policy = sim.OverloadContinue
	case "abort":
		policy = sim.OverloadAbort
	default:
		return fmt.Errorf("unknown -overload %q (choose continue or abort)", *overload)
	}

	log := trace.New()
	cfg := sim.Config{
		Horizon: *horizon, Sink: log, ReferenceStepper: *reference,
		ReleaseSeed: *relSeed, Overload: policy,
	}
	var streamFile *os.File
	var stream *trace.StreamSink
	if *streamOut != "" {
		f, err := os.Create(*streamOut)
		if err != nil {
			return err
		}
		streamFile = f
		stream = trace.NewStreamSink(f)
		cfg.Sink = trace.MultiSink(log, stream)
	}
	engine, err := sim.New(sys, p, cfg)
	if err != nil {
		return err
	}
	res, err := engine.Run()
	if streamFile != nil {
		if cerr := stream.Close(); cerr != nil && err == nil {
			err = cerr
		}
		if cerr := streamFile.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "protocol: %s   horizon: %d ticks   procs: %d   tasks: %d\n\n",
		res.Protocol, res.Horizon, sys.NumProcs, len(sys.Tasks))

	fmt.Fprintf(out, "%-6s %-10s %-5s %-7s %-5s %-9s %-9s %-8s %-8s %-7s\n",
		"task", "name", "proc", "period", "jobs", "missed", "maxResp", "avgResp", "maxB", "deadl?")
	ids := make([]int, 0, len(res.Stats))
	for id := range res.Stats {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	for _, idInt := range ids {
		id := task.ID(idInt)
		tk := sys.TaskByID(id)
		st := res.Stats[id]
		ok := "ok"
		if st.Missed > 0 {
			ok = "MISS"
		}
		fmt.Fprintf(out, "%-6d %-10s %-5d %-7d %-5d %-9d %-9d %-8.1f %-8d %-7s\n",
			idInt, tk.Name, tk.Proc, tk.Period, st.Finished, st.Missed,
			st.MaxResponse, st.AvgResponse(), st.MaxMeasuredB, ok)
	}

	fmt.Fprintln(out)
	fmt.Fprintf(out, "%-6s %-8s %-8s %-8s %-8s %-12s\n", "proc", "busy", "idle", "gcs", "preempt", "utilization")
	for i, ps := range res.Procs {
		fmt.Fprintf(out, "P%-5d %-8d %-8d %-8d %-8d %-12.2f\n",
			i, ps.BusyTicks, ps.IdleTicks, ps.GcsTicks, ps.Preemptions, ps.Utilization())
	}

	if res.Deadlock {
		fmt.Fprintf(out, "\nDEADLOCK detected at t=%d\n", res.DeadlockAt)
	}

	if *checks {
		obs.PrintInvariants(out, log, sys.NumProcs)
	}

	if *gantt {
		fmt.Fprintln(out)
		fmt.Fprint(out, log.Gantt(sys, 0, *ganttTo))
	}
	if *events {
		fmt.Fprintln(out)
		for _, e := range log.Events {
			fmt.Fprintln(out, e)
		}
	}
	if *metricsOut != "" {
		endTick := res.Horizon
		if res.Deadlock {
			endTick = res.DeadlockAt + 1
		}
		reg := obs.NewRegistry()
		obs.CollectSimSpeed(reg, res.Horizon, res.TicksSkipped)
		rep, err := obs.Attribute(log, sys, endTick)
		if err != nil {
			return err
		}
		if err := obs.WriteTraceSnapshot(out, *metricsOut, reg, log, sys, rep); err != nil {
			return err
		}
	}
	return nil
}
