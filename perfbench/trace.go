package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mpcp/internal/analysis"
	"mpcp/internal/campaign"
	"mpcp/internal/dist"
	"mpcp/internal/obs"
	"mpcp/internal/registry"
	"mpcp/internal/sim"
	"mpcp/internal/task"
	"mpcp/internal/workload"
)

// sparseUtil splits sim.run_us into sparse (below) and dense (at or
// above) per-processor utilization, where the event-horizon fast path
// coasts more or less.
const sparseUtil = 0.55

// layerTimes accumulates the traced run's per-call timings and counts.
type layerTimes struct {
	gen, bounds, sched, simNew, simRun durs // µs per call
	sparse, dense                      durs // µs per Engine.Run
	ticks, skipped                     int64
	simulated                          bool // the workload itself simulates

	point            durs // ms per EvaluatePoint in campaign.Run
	pointSum, runSum time.Duration
	resultsBytes     int64
	cycles           int

	replay, untraced time.Duration // single-threaded walls, probe excluded, over every cycle

	allocs map[string][2]float64 // layer -> mallocs, KB per call

	routes   map[string]durs // ms per request
	requests int
	bytes    int64
	jobs     int
	units    int
	hits     int64
	lookups  int64
	compute  atomic.Int64 // ns in Task.Run
	jobSum   time.Duration
}

// runTraced repeats the traced cycle until cfg.seconds have passed and
// reports per-layer metrics. A cycle runs the workload's spec through
// campaign.Run with a point-timing executor, re-evaluates every point
// untraced and then layer by layer, counts allocations per layer, and runs
// the spec as jobs through an instrumented coordinator.
func runTraced(w workloadDef, cfg runConfig) (*result, error) {
	g := newGate(w.name, cfg)
	lt := &layerTimes{routes: map[string]durs{}, allocs: map[string][2]float64{}}
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for cycle := 0; cycle == 0 || time.Now().Before(deadline); cycle++ {
		if err := traceCycle(w, cfg, g, lt, cycle); err != nil {
			return nil, err
		}
		runtime.GC()
	}
	return g.result(lt.metrics(w)), nil
}

func traceCycle(w workloadDef, cfg runConfig, g *gate, lt *layerTimes, cycle int) error {
	raw := w.spec(cfg.seed, cfg.tiny)
	spec, err := campaign.ParseSpec(raw)
	if err != nil {
		return err
	}
	points := spec.Points()

	// Campaign layer: campaign.Run with a pool that times every point.
	pool := &timedPool{workers: w.workers}
	r, err := sweepRep(w, raw, cfg.dir, pool)
	if err != nil {
		return err
	}
	info, err := os.Stat(filepath.Join(cfg.dir, "results.jsonl"))
	if err != nil {
		return err
	}
	lt.resultsBytes += info.Size()
	lt.runSum += r.setup.wall + r.work.wall
	for _, d := range pool.took {
		lt.point.add(d, time.Millisecond)
		lt.pointSum += d
	}
	rows := r.rows
	g.observe(checkRows(rows, 0), true)
	if len(rows) != len(points) {
		return fmt.Errorf("campaign.Run returned %d rows for %d points", len(rows), len(points))
	}

	// Untraced single-threaded evaluation of the same points.
	t0 := time.Now()
	untraced := make([]*campaign.PointResult, len(points))
	for k, pt := range points {
		untraced[k] = campaign.EvaluatePoint(spec, pt, nil)
	}
	lt.untraced += time.Since(t0)
	for k, pt := range points {
		b, _ := json.Marshal(untraced[k])
		if !bytes.Equal(b, rows[k]) {
			g.fail(fmt.Errorf("point %s: EvaluatePoint differs from campaign.Run", pt.Key))
		}
	}

	// Layer-by-layer replay; its counts must equal EvaluatePoint's.
	for k, pt := range points {
		got, err := replayPoint(spec, pt, lt)
		if err != nil {
			return err
		}
		a, _ := json.Marshal(got)
		b, _ := json.Marshal(untraced[k])
		if !bytes.Equal(a, b) {
			g.fail(fmt.Errorf("point %s: replay %s, EvaluatePoint %s", pt.Key, a, b))
		}
	}
	if cycle == 0 {
		countAllocs(spec, points, lt)
	}

	// Dist layer: the spec as a job through an instrumented coordinator
	// over an empty cache, then again under another name, which makes it
	// a new job whose every unit is a cache read of the first job's.
	again, err := renamed(spec)
	if err != nil {
		return err
	}
	store := filepath.Join(cfg.dir, fmt.Sprintf("store-%d", cycle))
	st := &routeStats{lt: lt}
	runners := map[string]dist.Runner{dist.KindSweep: timedRunner{dist.DefaultRunners()[dist.KindSweep], &lt.compute}}
	var hits, lookups, cached int64
	var last *jobResult
	d, err := distRep(w, [][]byte{raw, again}, store, st.wrap, runners, func(c *coordinator, j *jobResult) {
		lt.jobs++
		lt.units += j.sub.Units
		lt.jobSum += j.took.wall
		cached += int64(j.sub.Cached)
		hits = c.reg.Counter("dist_cache_hits").Value()
		lookups = hits + c.reg.Counter("dist_cache_misses").Value()
		last = j
	})
	if err != nil {
		return err
	}
	if hits != cached {
		g.fail(fmt.Errorf("coordinator counted %d cache hits, submit responses %d", hits, cached))
	}
	if last.sub.Cached != last.sub.Units {
		g.fail(fmt.Errorf("resubmitted job: %d of %d units from the cache", last.sub.Cached, last.sub.Units))
	}
	lt.hits += hits
	lt.lookups += lookups
	lt.cycles++
	// Both jobs must reproduce campaign.Run's rows.
	if digest(d.rows) != digest(append(append([][]byte(nil), rows...), rows...)) {
		g.fail(fmt.Errorf("coordinator results differ from campaign.Run's"))
	}
	g.observe(checkRows(d.rows, d.missing), false)
	return nil
}

// renamed is spec under another name. The coordinator identifies a job by
// its whole spec, but a unit's cache entry by its point and the spec's
// generation and analysis settings, which leave the name out.
func renamed(spec *campaign.Spec) ([]byte, error) {
	again := *spec
	again.Name += "-again"
	return json.Marshal(&again)
}

// timedPool is a LocalPool-equivalent executor (campaign.ForEach over
// campaign.EvaluatePoint) that records each point's evaluation time.
type timedPool struct {
	workers int
	took    []time.Duration
}

func (p *timedPool) Execute(spec *campaign.Spec, points []campaign.Point, collect func(*campaign.PointResult)) error {
	type timed struct {
		r *campaign.PointResult
		d time.Duration
	}
	campaign.ForEach(p.workers, points, func(_ int, pt campaign.Point) timed {
		t0 := time.Now()
		r := campaign.EvaluatePoint(spec, pt, nil)
		return timed{r, time.Since(t0)}
	}, func(_ int, t timed) {
		p.took = append(p.took, t.d)
		collect(t.r)
	})
	return nil
}

// replayPoint re-evaluates one point the way campaign.EvaluatePoint does,
// timing each layer's public call. When the workload does not simulate,
// it still simulates every trial as a probe of the sim layer on the same
// systems; probe time is kept out of the replay wall and the result.
func replayPoint(spec *campaign.Spec, pt campaign.Point, lt *layerTimes) (*campaign.PointResult, error) {
	res := &campaign.PointResult{
		Key: pt.Key, Protocol: pt.Protocol, Util: pt.Util,
		Procs: pt.Procs, TasksPerProc: pt.TasksPerProc, CSMax: pt.CSMax,
	}
	start := time.Now()
	var probe time.Duration
	var blockSum float64
	var blockTrials int
	for trial := 0; trial < spec.SeedsPerPoint; trial++ {
		res.Trials++
		cfg := spec.WorkloadConfig(pt, spec.TrialSeed(pt, trial))
		t := time.Now()
		sys, err := workload.Generate(cfg)
		lt.gen.add(time.Since(t), time.Microsecond)
		if err != nil {
			res.GenFailed++
			continue
		}
		opts := registry.AnalyzeOpts{DeferredPenalty: spec.DeferredPenalty, RemoteSems: spec.RemoteSems()}
		t = time.Now()
		bounds, err := registry.Analyze(pt.Protocol, sys, opts)
		lt.bounds.add(time.Since(t), time.Microsecond)
		if err != nil {
			res.AnalysisFailed++
			continue
		}
		t = time.Now()
		rep, err := analysis.Schedulability(sys, bounds, analysis.Options{})
		lt.sched.add(time.Since(t), time.Microsecond)
		if err != nil {
			res.AnalysisFailed++
			continue
		}
		if rep.SchedulableUtil {
			res.SchedUtil++
		}
		if rep.SchedulableResponse {
			res.SchedResponse++
		}
		trialMax, trialSum := 0, 0
		for _, tk := range sys.Tasks {
			b := bounds[tk.ID]
			if b == nil {
				continue
			}
			if b.Total > trialMax {
				trialMax = b.Total
			}
			trialSum += b.Total
		}
		if trialMax > res.MaxBlocking {
			res.MaxBlocking = trialMax
		}
		if len(bounds) > 0 {
			blockSum += float64(trialSum) / float64(len(bounds))
			blockTrials++
		}

		t = time.Now()
		r, truncated, err := simulate(spec, pt, sys, lt)
		if !spec.Simulate {
			probe += time.Since(t)
			if err != nil {
				return nil, fmt.Errorf("sim probe %s: %w", pt.Key, err)
			}
			continue
		}
		lt.simulated = true
		if truncated {
			res.SimTruncated++
		}
		if err != nil {
			res.SimFailed++
			continue
		}
		res.Simulated++
		if r.AnyMiss {
			res.SimMisses++
			if rep.SchedulableResponse {
				res.SimMissedAdmitted++
			}
		}
		if r.Deadlock {
			res.SimDeadlocks++
		}
	}
	if blockTrials > 0 {
		res.MeanBlocking = blockSum / float64(blockTrials)
	}
	lt.replay += time.Since(start) - probe
	return res, nil
}

// simHorizon is the confirmation run's horizon under the spec's tick
// budget, as campaign.EvaluatePoint computes it.
func simHorizon(spec *campaign.Spec, sys *task.System) (horizon int, truncated bool) {
	horizon = sys.MaxOffset() + sys.Hyperperiod()
	if budget := spec.SimTickBudget; budget > 0 && horizon > budget {
		return budget, true
	}
	return horizon, false
}

// simulate runs one confirmation simulation, timing registry.New plus
// sim.New, and Engine.Run.
func simulate(spec *campaign.Spec, pt campaign.Point, sys *task.System, lt *layerTimes) (*sim.Result, bool, error) {
	horizon, truncated := simHorizon(spec, sys)
	t := time.Now()
	proto, err := registry.New(pt.Protocol, registry.Opts{RemoteSems: spec.RemoteSems()})
	if err != nil {
		return nil, truncated, err
	}
	e, err := sim.New(sys, proto, sim.Config{Horizon: horizon})
	lt.simNew.add(time.Since(t), time.Microsecond)
	if err != nil {
		return nil, truncated, err
	}
	t = time.Now()
	r, err := e.Run()
	d := time.Since(t)
	lt.simRun.add(d, time.Microsecond)
	if pt.Util < sparseUtil {
		lt.sparse.add(d, time.Microsecond)
	} else {
		lt.dense.add(d, time.Microsecond)
	}
	if err != nil {
		return nil, truncated, err
	}
	lt.ticks += int64(r.Horizon)
	lt.skipped += int64(r.TicksSkipped)
	return r, truncated, nil
}

// countAllocs measures allocations per call with runtime.MemStats deltas
// around one batch of calls per layer over every trial of every point.
func countAllocs(spec *campaign.Spec, points []campaign.Point, lt *layerTimes) {
	type trial struct {
		pt     campaign.Point
		cfg    workload.Config
		opts   registry.AnalyzeOpts
		sys    *task.System
		bounds map[task.ID]*analysis.Bound
		eng    *sim.Engine
	}
	var trials []*trial
	opts := registry.AnalyzeOpts{DeferredPenalty: spec.DeferredPenalty, RemoteSems: spec.RemoteSems()}
	for _, pt := range points {
		for i := 0; i < spec.SeedsPerPoint; i++ {
			trials = append(trials, &trial{
				pt:   pt,
				cfg:  spec.WorkloadConfig(pt, spec.TrialSeed(pt, i)),
				opts: opts,
			})
		}
	}
	batch := func(layer string, fn func(*trial)) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, t := range trials {
			fn(t)
		}
		runtime.ReadMemStats(&after)
		lt.allocs[layer] = [2]float64{
			float64(after.Mallocs-before.Mallocs) / float64(len(trials)),
			float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(len(trials)),
		}
	}
	batch("generate", func(t *trial) { t.sys, _ = workload.Generate(t.cfg) })
	// Every trial generates in the benchmark's workloads (the gate
	// counts a generation failure), so the later batches see them all.
	ok := trials[:0]
	for _, t := range trials {
		if t.sys != nil {
			ok = append(ok, t)
		}
	}
	trials = ok
	if len(trials) == 0 {
		return
	}
	batch("bounds", func(t *trial) { t.bounds, _ = registry.Analyze(t.pt.Protocol, t.sys, t.opts) })
	batch("sched", func(t *trial) { _, _ = analysis.Schedulability(t.sys, t.bounds, analysis.Options{}) })
	for _, t := range trials {
		horizon, _ := simHorizon(spec, t.sys)
		if proto, err := registry.New(t.pt.Protocol, registry.Opts{RemoteSems: t.opts.RemoteSems}); err == nil {
			t.eng, _ = sim.New(t.sys, proto, sim.Config{Horizon: horizon})
		}
	}
	batch("run", func(t *trial) {
		if t.eng != nil {
			_, _ = t.eng.Run()
		}
	})
}

// timedRunner wraps the sweep runner so the worker's point evaluations
// (Task.Run) are timed.
type timedRunner struct {
	inner dist.Runner
	ns    *atomic.Int64
}

func (r timedRunner) Open(payload json.RawMessage) (dist.Task, error) {
	t, err := r.inner.Open(payload)
	if err != nil {
		return nil, err
	}
	return timedTask{t, r.ns}, nil
}

type timedTask struct {
	dist.Task
	ns *atomic.Int64
}

func (t timedTask) Run(i int, reg *obs.Registry) (json.RawMessage, int, error) {
	t0 := time.Now()
	defer func() { t.ns.Add(int64(time.Since(t0))) }()
	return t.Task.Run(i, reg)
}

// routeStats is a timing and byte-counting http.RoundTripper layer over
// the client transport. A request's latency runs from RoundTrip until
// its response body is closed.
type routeStats struct {
	mu sync.Mutex
	lt *layerTimes
}

func (s *routeStats) wrap(base http.RoundTripper) http.RoundTripper {
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		route := routeOf(req)
		t0 := time.Now()
		resp, err := base.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		sent := req.ContentLength
		if sent < 0 {
			sent = 0
		}
		resp.Body = &countedBody{ReadCloser: resp.Body, done: func(read int64) {
			s.mu.Lock()
			defer s.mu.Unlock()
			d := s.lt.routes[route]
			d.add(time.Since(t0), time.Millisecond)
			s.lt.routes[route] = d
			s.lt.requests++
			s.lt.bytes += sent + read
		}}
		return resp, nil
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// routeOf names the coordinator API route of a request.
func routeOf(req *http.Request) string {
	p := req.URL.Path
	switch {
	case p == "/v1/jobs":
		return "submit"
	case p == "/v1/lease":
		return "lease"
	case strings.Contains(p, "/shards/"):
		return "ingest"
	case strings.HasSuffix(p, "/results"):
		return "results"
	default:
		return "other"
	}
}

type countedBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(read int64)
}

func (b *countedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// metrics assembles the per-layer metrics. Shares are of the workload's
// single-threaded host time, the traced replay's wall time.
func (lt *layerTimes) metrics(w workloadDef) map[string]metric {
	host := lt.replay.Seconds()
	share := func(d durs) float64 { return d.sum() / 1e6 / host }
	simShare := 0.0
	if lt.simulated {
		simShare = (lt.simNew.sum() + lt.simRun.sum()) / 1e6 / host
	}
	m := map[string]metric{}
	timing := func(name string, d durs, unit string) {
		m[name] = metric{median(d), unit}
		m[name+"_p99"] = metric{quantile(d, 0.99), unit}
	}
	alloc := func(prefix, layer string) {
		a := lt.allocs[layer]
		m[prefix+"_allocs"] = metric{a[0], "count"}
		m[prefix+"_kb"] = metric{a[1], "count"}
	}
	timing("workload.generate_us", lt.gen, "us")
	alloc("workload.generate", "generate")
	m["workload.share"] = metric{share(lt.gen), "ratio"}

	timing("analysis.bounds_us", lt.bounds, "us")
	alloc("analysis.bounds", "bounds")
	timing("analysis.sched_us", lt.sched, "us")
	m["analysis.sched_allocs"] = metric{lt.allocs["sched"][0], "count"}
	m["analysis.share"] = metric{share(lt.bounds) + share(lt.sched), "ratio"}

	timing("sim.new_us", lt.simNew, "us")
	timing("sim.run_us", lt.simRun, "us")
	alloc("sim.run", "run")
	timing("sim.run_us.sparse", lt.sparse, "us")
	timing("sim.run_us.dense", lt.dense, "us")
	m["sim.ns_per_tick"] = metric{lt.simRun.sum() * 1e3 / float64(lt.ticks), "ns/tick"}
	m["sim.ticks_skipped_ratio"] = metric{float64(lt.skipped) / float64(lt.ticks), "count"}
	m["sim.share"] = metric{simShare, "ratio"}

	timing("campaign.point_ms", lt.point, "ms")
	m["campaign.overhead_share"] = metric{1 - lt.pointSum.Seconds()/(float64(w.workers)*lt.runSum.Seconds()), "ratio"}
	m["campaign.results_kb"] = metric{float64(lt.resultsBytes) / 1024 / float64(lt.cycles), "count"}

	for _, r := range []string{"submit", "lease", "ingest", "results"} {
		timing("dist."+r+"_ms", lt.routes[r], "ms")
	}
	m["dist.requests_per_job"] = metric{float64(lt.requests) / float64(lt.jobs), "count"}
	m["dist.http_kb_per_unit"] = metric{float64(lt.bytes) / 1024 / float64(lt.units), "count"}
	m["dist.cache_hit_ratio"] = metric{float64(lt.hits) / float64(lt.lookups), "count"}
	m["dist.compute_share"] = metric{float64(lt.compute.Load()) / (float64(w.workers) * float64(lt.jobSum)), "ratio"}

	m["trace.traced_s"] = metric{lt.replay.Seconds() / float64(lt.cycles), "s"}
	m["trace.untraced_s"] = metric{lt.untraced.Seconds() / float64(lt.cycles), "s"}
	return m
}
