// Command perfbench is the repository benchmark. It drives the public
// entry points users call — campaign.Run for sweeps, and dist.Server,
// dist.Client and dist.Worker for the coordinator — over inputs generated
// from a seed, checks the outputs, and prints one JSON result line.
//
//	perfbench --workload sweep-analysis --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// replays the same work layer by layer and reports per-layer metrics.
// See README.md in this directory for every metric's definition.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds float64
	// tiny selects the self-check's small inputs; no pinned digest
	// applies to them.
	tiny bool
	// dir holds the run's result files and coordinator directories.
	dir string
}

func main() {
	name := flag.String("workload", "", "workload name (sweep-analysis, sweep-sim)")
	seed := flag.Int64("seed", defaultSeed, "base seed the workload's inputs are generated from (positive)")
	seconds := flag.Float64("seconds", 10, "measurement time")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced replay")
	workdir := flag.String("workdir", ".bench_build/perfbench/run", "scratch directory root")
	rep := flag.Bool("rep", false, "run one repetition in this process, in -workdir, and print its report")
	flag.Parse()

	w, ok := findWorkload(*name, runtime.GOMAXPROCS(0))
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seed < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -seed must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds}
	if *rep {
		cfg.dir = *workdir
		r, err := runRep(w, cfg)
		if err == nil {
			err = printJSON(r)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s repetition: %v\n", w.name, err)
			os.Exit(1)
		}
		return
	}

	dir, err := os.MkdirTemp(mustMkdir(*workdir), w.name+"-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	cfg.dir = dir
	fmt.Fprintf(os.Stderr, "perfbench: %s: nproc %d, GOMAXPROCS %d, %d pool workers, scratch directory on %s\n",
		w.name, runtime.NumCPU(), runtime.GOMAXPROCS(0), w.workers, fsType(dir))
	var res *result
	if *trace == 1 {
		res, err = runTraced(w, cfg)
	} else {
		res, err = runUntraced(w, cfg, func() (*repReport, error) { return spawnRep(w, cfg) })
	}
	os.RemoveAll(dir)
	if err == nil {
		err = printJSON(res)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
}

func printJSON(v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

func mustMkdir(dir string) string {
	abs, err := filepath.Abs(dir)
	if err == nil {
		err = os.MkdirAll(abs, 0o755)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	return abs
}

// repReport is one repetition, run in a process of its own so that its
// peak resident memory is its own.
type repReport struct {
	Check rowCheck `json:"check"`
	// SetupS is wall time; WorkS is host time, wall time less hypervisor
	// steal.
	SetupS    float64 `json:"setup_s"`
	WorkS     float64 `json:"work_s"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
}

// runRep runs one repetition of the workload in this process.
func runRep(w workloadDef, cfg runConfig) (*repReport, error) {
	r, err := sweepRep(w, w.spec(cfg.seed, cfg.tiny), cfg.dir, nil)
	if err != nil {
		return nil, err
	}
	return &repReport{
		Check:     checkRows(r.rows, r.missing),
		SetupS:    r.setup.wall.Seconds(),
		WorkS:     r.work.host.Seconds(),
		PeakRSSMB: peakRSSMB(),
	}, nil
}

// spawnRep runs one repetition in a child process and waits for it.
func spawnRep(w workloadDef, cfg runConfig) (*repReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-workload", w.name, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-workdir", cfg.dir, "-rep")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("repetition: %w", err)
	}
	var rep repReport
	if err := json.Unmarshal(out, &rep); err != nil {
		return nil, fmt.Errorf("repetition: %w", err)
	}
	return &rep, nil
}

// runUntraced measures the end-to-end metrics: one unmeasured warm-up
// repetition, then repetitions until cfg.seconds have passed. Every
// repetition runs the workload's fixed work from a fresh start, in its
// own process (rep). Work is timed in host time, wall time less the time
// the hypervisor stole from the host's CPUs, so an idle or serialised
// pool worker shows while a shared virtual machine's steal does not.
func runUntraced(w workloadDef, cfg runConfig, rep func() (*repReport, error)) (*result, error) {
	g := newGate(w.name, cfg)
	var setup, rates, rss []float64
	var deadline time.Time
	for n := 0; n < 2 || time.Now().Before(deadline); n++ {
		r, err := rep()
		if err != nil {
			return nil, err
		}
		g.observe(r.Check, true)
		if n == 0 {
			deadline = time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
			continue
		}
		setup = append(setup, r.SetupS)
		rates = append(rates, float64(r.Check.Attempted)/r.WorkS)
		rss = append(rss, r.PeakRSSMB)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d measured repetitions\n", w.name, len(rates))
	return g.result(map[string]metric{
		"points_per_s": {median(rates), "points/s"},
		"setup_s":      {median(setup), "s"},
		"peak_rss_mb":  {median(rss), "MB"},
	}), nil
}
