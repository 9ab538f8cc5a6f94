// Command rtsched runs the worst-case blocking analysis and both
// schedulability tests (Theorem 3's utilization bound and the
// response-time iteration) on a workload description.
//
// Usage:
//
//	rtsched -config system.json [-kind mpcp|dpcp|...] [-penalty] [-ceilings] [-explain id]
//
// -kind and -explain resolve through the protocol registry: any
// protocol with a registered bound can be analyzed, and any whose bound
// is the composed MPCP/DPCP/hybrid analysis can be explained term by
// term.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"mpcp/internal/analysis"
	"mpcp/internal/ceiling"
	"mpcp/internal/config"
	"mpcp/internal/registry"
	"mpcp/internal/task"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rtsched:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rtsched", flag.ContinueOnError)
	var (
		configPath = fs.String("config", "", "path to the JSON workload description (required)")
		kindName   = fs.String("kind", "mpcp", "protocol whose blocking analysis to run: "+strings.Join(registry.Analyzable(), ", "))
		penalty    = fs.Bool("penalty", true, "include the deferred-execution penalty")
		ceilings   = fs.Bool("ceilings", false, "print the Section 4 priority structure")
		explain    = fs.Int("explain", 0, "print a factor-by-factor explanation of this task's bound ("+strings.Join(registry.Explainable(), ", ")+")")
		hyperbolic = fs.Bool("hyperbolic", false, "also run the sharper hyperbolic utilization test")
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
	desc, ok := registry.Lookup(*kindName)
	if !ok || !desc.Caps.HasBound {
		return fmt.Errorf("unknown kind %q (analyzable protocols: %s)",
			*kindName, strings.Join(registry.Analyzable(), ", "))
	}

	if *ceilings {
		printCeilings(out, sys)
	}

	aopts := registry.AnalyzeOpts{DeferredPenalty: *penalty}
	bounds, err := registry.Analyze(desc.Name, sys, aopts)
	if err != nil {
		return err
	}
	rep, err := analysis.Schedulability(sys, bounds, analysis.Options{})
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "analysis: %s   deferred penalty: %v\n\n", desc.Name, *penalty)
	fmt.Fprintf(out, "%-6s %-5s %-7s %-7s %-7s %-7s | %-6s %-6s %-6s %-6s %-6s %-7s | %-9s %-9s %-5s\n",
		"task", "proc", "C", "T", "B", "B/T",
		"f1", "f2", "f3", "f4", "f5", "penalty",
		"utilLHS", "utilRHS", "resp")
	ids := make([]int, 0, len(bounds))
	for id := range bounds {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	byTask := make(map[task.ID]analysis.TaskReport, len(rep.Tasks))
	for _, tr := range rep.Tasks {
		byTask[tr.Task] = tr
	}
	for _, idInt := range ids {
		id := task.ID(idInt)
		b := bounds[id]
		tr := byTask[id]
		fmt.Fprintf(out, "%-6d %-5d %-7d %-7d %-7d %-7.3f | %-6d %-6d %-6d %-6d %-6d %-7d | %-9.3f %-9.3f %-5d\n",
			idInt, tr.Proc, tr.C, tr.T, b.Total, tr.Loss(),
			b.LocalBlocking, b.GlobalHeldByLower, b.RemotePreemption,
			b.BlockingProcGcs, b.LowerLocalGcs, b.DeferredPenalty,
			tr.UtilLHS, tr.UtilRHS, tr.Response)
	}
	fmt.Fprintf(out, "\nTheorem 3 (utilization): schedulable = %v\n", rep.SchedulableUtil)
	fmt.Fprintf(out, "response-time iteration: schedulable = %v\n", rep.SchedulableResponse)
	if *hyperbolic {
		ok, _, err := analysis.HyperbolicTest(sys, bounds)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "hyperbolic test:         schedulable = %v\n", ok)
	}

	if *explain != 0 {
		text, err := registry.Explain(desc.Name, sys, task.ID(*explain), aopts)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "\n%s", text)
	}
	return nil
}

func printCeilings(out io.Writer, sys *task.System) {
	tbl := ceiling.Compute(sys, false)
	fmt.Fprintf(out, "P_H = %d   P_G = %d\n\n", tbl.PH, tbl.PG)
	fmt.Fprintln(out, "semaphore ceilings:")
	for _, sem := range sys.Sems {
		if sem.Global {
			fmt.Fprintf(out, "  %-12s global  ceiling=%d\n", sem.Name, tbl.GlobalCeiling(sem.ID))
		} else if c, ok := tbl.LocalCeiling(sem.ID); ok {
			fmt.Fprintf(out, "  %-12s local   ceiling=%d\n", sem.Name, c)
		}
	}
	fmt.Fprintln(out, "\ngcs execution priorities (P_G + P_h):")
	for _, tk := range sys.Tasks {
		for _, cs := range sys.GlobalSections(tk.ID) {
			fmt.Fprintf(out, "  task %-4d on %-12s prio=%d\n",
				tk.ID, sys.SemByID(cs.Sem).Name, tbl.GcsPriority(tk.ID, cs.Sem))
		}
	}
	fmt.Fprintln(out)
}
