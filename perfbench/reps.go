package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mpcp/internal/campaign"
	"mpcp/internal/dist"
	"mpcp/internal/obs"
)

// stamp reads the wall clock, the process's CPU clock and the host's
// hypervisor steal clock together.
type stamp struct {
	wall  time.Time
	cpu   time.Duration
	steal time.Duration
}

func now() stamp { return stamp{time.Now(), cpuTime(), stealTime()} }

// span is the time between two stamps. host is wall time less the time
// the hypervisor stole from the host's CPUs over the interval.
type span struct{ wall, cpu, host time.Duration }

func (s stamp) to(e stamp) span {
	wall := e.wall.Sub(s.wall)
	return span{wall, e.cpu - s.cpu, wall - (e.steal - s.steal)}
}

// cpuTime is the CPU time of every thread of the process. On a virtual
// machine it excludes time the hypervisor stole from the process.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTime is the time the hypervisor has stolen from the host's CPUs
// since boot, averaged over the CPUs: the steal column of /proc/stat's
// aggregate line, in clock ticks of 10 ms (USER_HZ is 100 on Linux),
// over the number of per-CPU lines. It is 0 where /proc/stat is
// unreadable, which leaves host time equal to wall time.
func stealTime() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	var total int64
	cpus := 0
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || !strings.HasPrefix(f[0], "cpu") {
			continue
		}
		if f[0] != "cpu" {
			cpus++
			continue
		}
		if len(f) > 8 {
			total, _ = strconv.ParseInt(f[8], 10, 64)
		}
	}
	if cpus == 0 {
		return 0
	}
	return time.Duration(total) * 10 * time.Millisecond / time.Duration(cpus)
}

// repStats is one run of a workload's fixed work.
type repStats struct {
	// setup runs from the start of the run to the start of the first
	// point (sweeps) or the first job submission (coordinator).
	setup span
	// work runs from there to the end of the run.
	work span
	// rows are the result rows in spec order (job order, then unit order,
	// from the coordinator); missing counts points a job failed to deliver.
	rows    [][]byte
	missing int
}

// markedPool is the default LocalPool executor, recording when point
// evaluation starts.
type markedPool struct {
	campaign.LocalPool
	start stamp
}

func (p *markedPool) Execute(spec *campaign.Spec, points []campaign.Point, collect func(*campaign.PointResult)) error {
	p.start = now()
	return p.LocalPool.Execute(spec, points, collect)
}

// sweepRep runs one campaign the way rtsweep does: parse the spec, then
// campaign.Run with a LocalPool and a results file. exec, when set,
// replaces the LocalPool (the traced run times every point).
func sweepRep(w workloadDef, raw []byte, dir string, exec campaign.Executor) (*repStats, error) {
	pool := &markedPool{LocalPool: campaign.LocalPool{Workers: w.workers}}
	if exec == nil {
		exec = pool
	}
	t0 := now()
	spec, err := campaign.ParseSpec(raw)
	if err != nil {
		return nil, err
	}
	c, err := campaign.Run(spec, campaign.Options{
		Workers:     w.workers,
		ResultsPath: filepath.Join(dir, "results.jsonl"),
		Executor:    exec,
	})
	end := now()
	if err != nil {
		return nil, err
	}
	start := pool.start
	if start.wall.IsZero() {
		start = t0
	}
	st := &repStats{setup: t0.to(start), work: start.to(end)}
	for _, r := range c.Results {
		b, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		st.rows = append(st.rows, b)
	}
	return st, nil
}

// coordinator is an in-process dist.Server behind net/http on loopback,
// with an on-disk cache and checkpoint directory.
type coordinator struct {
	reg    *obs.Registry
	srv    *dist.Server
	hs     *http.Server
	served chan error
	tr     *http.Transport
	client *dist.Client
}

// startCoordinator brings up a fresh coordinator whose cache and
// checkpoints live under store. wrap, when set, wraps the client
// transport (the traced run counts requests).
func startCoordinator(store string, wrap func(http.RoundTripper) http.RoundTripper) (*coordinator, error) {
	c := &coordinator{reg: obs.NewRegistry()}
	cache, err := dist.NewCache(filepath.Join(store, "cache"), c.reg)
	if err != nil {
		return nil, err
	}
	c.srv = dist.NewServer(dist.ServerOptions{Cache: cache, DataDir: filepath.Join(store, "data"), Metrics: c.reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c.hs = &http.Server{Handler: c.srv.Handler()}
	c.served = make(chan error, 1)
	go func() { c.served <- c.hs.Serve(ln) }()
	c.tr = &http.Transport{}
	var rt http.RoundTripper = c.tr
	if wrap != nil {
		rt = wrap(rt)
	}
	c.client = &dist.Client{BaseURL: "http://" + ln.Addr().String(), HTTP: &http.Client{Transport: rt}}
	return c, nil
}

// stop shuts the listener, waits for the serve loop and closes the
// checkpoints.
func (c *coordinator) stop() error {
	err := c.hs.Close()
	<-c.served
	if cerr := c.srv.Close(); err == nil {
		err = cerr
	}
	c.tr.CloseIdleConnections()
	return err
}

// jobResult is one job as the client saw it.
type jobResult struct {
	sub   *dist.SubmitResponse
	units []dist.UnitResult
	took  span
}

// runJob submits one spec, drains it with a drain-mode worker and
// fetches every result: the closed loop of one client.
func (c *coordinator) runJob(raw []byte, worker *dist.Worker) (*jobResult, error) {
	spec, err := campaign.ParseSpec(raw)
	if err != nil {
		return nil, err
	}
	t0 := now()
	sub, err := c.client.Submit(dist.KindSweep, dist.SweepPayload{Spec: spec})
	if err != nil {
		return nil, err
	}
	if _, err := worker.Run(context.Background()); err != nil {
		return nil, err
	}
	units, err := c.client.Results(sub.JobID, 0)
	if err != nil {
		return nil, err
	}
	return &jobResult{sub: sub, units: units, took: t0.to(now())}, nil
}

// distRep brings up a coordinator over store and runs every spec as a
// job through it. runners, when set, replaces the worker's runner table
// (the traced run times point evaluation); each job is handed to observe.
func distRep(w workloadDef, specs [][]byte, store string, wrap func(http.RoundTripper) http.RoundTripper,
	runners map[string]dist.Runner, observe func(*coordinator, *jobResult)) (*repStats, error) {
	t0 := now()
	c, err := startCoordinator(store, wrap)
	if err != nil {
		return nil, err
	}
	worker := &dist.Worker{Client: c.client, Name: "drain", Workers: w.workers, ExitOnDone: true, Runners: runners}
	first := now()
	st := &repStats{setup: t0.to(first)}
	for _, raw := range specs {
		j, err := c.runJob(raw, worker)
		if err != nil {
			c.stop()
			return nil, err
		}
		for _, u := range j.units {
			st.rows = append(st.rows, u.Result)
		}
		if n := j.sub.Units - len(j.units); n > 0 {
			st.missing += n
		}
		if observe != nil {
			observe(c, j)
		}
	}
	st.work = first.to(now())
	if err := c.stop(); err != nil {
		return nil, fmt.Errorf("stop coordinator: %w", err)
	}
	return st, nil
}
