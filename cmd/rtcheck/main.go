// Command rtcheck runs the conformance harness (internal/conformance):
// randomized differential and metamorphic checking of every protocol
// implementation against the simulator invariants and the analytical
// blocking bounds, with automatic shrinking of failures to replayable
// JSON repros.
//
// Usage:
//
//	rtcheck -trials 200 -seed 1
//	rtcheck -protocols mpcp,dpcp,hybrid -trials 500 -workers 8 -out report.json
//	rtcheck -replay testdata/conformance/broken-invariants-0123456789abcdef.json
//	rtcheck -server http://127.0.0.1:7632 -trials 500
//
// With -server the trials fan out across the workers of an rtsweepd
// service (docs/distributed.md); the report, repro bytes and repro
// paths are identical to a local run of the same options.
//
// Output is deterministic and byte-identical regardless of -workers. The
// exit status is 0 when every trial passed, 1 when any oracle was
// violated (shrunk repros are written under -repro-dir), and 2 on usage
// or I/O errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mpcp/internal/conformance"
	"mpcp/internal/dist"
	"mpcp/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("rtcheck", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		protocols = fs.String("protocols", strings.Join(conformance.DefaultProtocols, ","),
			"comma-separated protocols to check (also: "+strings.Join(extraProtocols(), ", ")+")")
		trials   = fs.Int("trials", 25, "random task sets per protocol")
		seed     = fs.Int64("seed", 1, "base seed sharding all trial seeds")
		workers  = fs.Int("workers", 0, "worker goroutines (0 = all CPUs); never affects results")
		shrink   = fs.Bool("shrink", true, "shrink failing trials to minimal repros")
		outPath  = fs.String("out", "", "write the full JSON report to this file")
		reproDir = fs.String("repro-dir", "testdata/conformance", "directory for shrunk repro files (empty to disable)")
		horizon  = fs.Int("horizon", 0, "simulation horizon in ticks (0 = one hyperperiod past the largest offset)")
		replay   = fs.String("replay", "", "replay one repro file and exit")
		server   = fs.String("server", "", "run the trials on an rtsweepd coordinator at this URL instead of in-process")
		sporadic = fs.Bool("sporadic", false, "force every trial onto a sporadic+jittered workload shape (release-model smoke gate; uniprocessor-only protocols get it on one processor)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(errw, "rtcheck: unexpected arguments: %v\n", fs.Args())
		return 2
	}

	if *replay != "" {
		return replayRepro(*replay, out, errw)
	}

	opts := conformance.Options{
		Protocols: splitList(*protocols),
		Trials:    *trials,
		BaseSeed:  *seed,
		Workers:   *workers,
		Shrink:    *shrink,
		ReproDir:  *reproDir,
		Horizon:   *horizon,
	}
	if *sporadic {
		wl := workload.Default(0) // seed is replaced per trial
		wl.NumProcs = 3
		wl.TasksPerProc = 3
		wl.UtilPerProc = 0.4
		wl.Sporadic = true
		wl.MaxJitterFrac = 0.1
		opts.Workload = &wl
	}
	var rep *conformance.Report
	var err error
	if *server != "" {
		// Remote fan-out via the sharded sweep service: trial order,
		// repro bytes and repro paths match a local run of the same
		// options (docs/distributed.md).
		rep, err = dist.RunConformance(&dist.Client{BaseURL: *server}, opts, 0)
	} else {
		rep, err = conformance.Run(opts)
	}
	if err != nil {
		fmt.Fprintln(errw, "rtcheck:", err)
		return 2
	}

	perProto := make(map[string]int)
	for _, r := range rep.Results {
		if len(r.Violations) > 0 {
			perProto[r.Protocol]++
			for _, v := range r.Violations {
				fmt.Fprintf(out, "FAIL %s trial %d seed %d: %s: %s\n",
					r.Protocol, r.Trial, r.Seed, v.Oracle, v.Message)
			}
			if r.ReproPath != "" {
				fmt.Fprintf(out, "  repro: %s\n", r.ReproPath)
			}
		}
	}
	for _, p := range rep.Protocols {
		fmt.Fprintf(out, "%-14s trials=%d failures=%d\n", p, rep.Trials, perProto[p])
	}
	failures := rep.Failures()
	fmt.Fprintf(out, "rtcheck: %d trials, %d failing\n", len(rep.Results), failures)

	if *outPath != "" {
		if err := writeReport(*outPath, rep); err != nil {
			fmt.Fprintln(errw, "rtcheck:", err)
			return 2
		}
	}
	if failures > 0 {
		return 1
	}
	return 0
}

func replayRepro(path string, out, errw io.Writer) int {
	r, err := conformance.LoadRepro(path)
	if err != nil {
		fmt.Fprintln(errw, "rtcheck:", err)
		return 2
	}
	vs, err := r.Replay()
	if err != nil {
		fmt.Fprintln(errw, "rtcheck:", err)
		return 2
	}
	fmt.Fprintf(out, "replay %s: protocol=%s oracle=%s horizon=%d\n", path, r.Protocol, r.Oracle, r.Horizon)
	for _, v := range vs {
		fmt.Fprintf(out, "  %s: %s\n", v.Oracle, v.Message)
	}
	if len(vs) > 0 {
		fmt.Fprintf(out, "reproduced: %d violation(s)\n", len(vs))
		return 1
	}
	fmt.Fprintln(out, "did not reproduce (stale repro?)")
	return 0
}

func writeReport(path string, rep *conformance.Report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// extraProtocols lists the checkable protocols outside the default
// set, derived from the conformance registry so the help text never
// goes stale.
func extraProtocols() []string {
	inDefault := make(map[string]bool, len(conformance.DefaultProtocols))
	for _, p := range conformance.DefaultProtocols {
		inDefault[p] = true
	}
	var out []string
	for _, p := range conformance.KnownProtocols {
		if !inDefault[p] {
			out = append(out, p)
		}
	}
	return out
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
