package dist

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"mpcp/internal/campaign"
	"mpcp/internal/obs"
	"mpcp/internal/obs/span"
)

// Defaults for ServerOptions zero values.
const (
	// DefaultShardSize is the number of units per shard. Small enough
	// that a handful of workers all get work on modest grids, large
	// enough that lease/ingest round trips stay off the hot path.
	DefaultShardSize = 8
	// DefaultLeaseTTL bounds how long a dead worker can sit on a shard
	// before it is stolen. A live worker that overruns it only risks
	// duplicated compute, never duplicated or lost results.
	DefaultLeaseTTL = 60 * time.Second
)

// ServerOptions configures a coordinator.
type ServerOptions struct {
	// Runners maps job kinds to runners; nil means DefaultRunners().
	Runners map[string]Runner
	// Cache, when non-nil, satisfies already-computed units at submit
	// time and absorbs every ingested result.
	Cache *Cache
	// DataDir, when non-empty, persists a JSONL checkpoint per job
	// under DataDir/jobs/<job-id>.jsonl. Resubmitting a job — same
	// kind and payload, e.g. after a coordinator restart — restores
	// every checkpointed unit instead of recomputing it.
	DataDir string
	// ShardSize is the number of units per shard; <= 0 means
	// DefaultShardSize.
	ShardSize int
	// LeaseTTL is how long a shard lease lives before it can be
	// stolen; <= 0 means DefaultLeaseTTL.
	LeaseTTL time.Duration
	// Metrics (nil-safe) receives the ops instrumentation: request
	// counters and latency per route, cache hit/miss counters, and
	// job/unit/lease counters.
	Metrics *obs.Registry
	// Clock overrides the lease clock (tests inject a fake one to
	// expire leases deterministically); nil means time.Now. The clock
	// orders leases only — results never depend on it.
	Clock func() time.Time
	// Tracer (nil-safe) emits coordinator spans: submit, partition,
	// cache_hit, lease, expire and ingest, all keyed by job and shard
	// IDs so span identity is deterministic (see internal/obs/span).
	Tracer *span.Tracer
}

// Server is the sweep coordinator: it owns job state, shard leases, the
// checkpoint files and the result cache. All HTTP access goes through
// Handler. Safe for concurrent use.
type Server struct {
	runners   map[string]Runner
	cache     *Cache
	dataDir   string
	shardSize int
	leaseTTL  time.Duration
	metrics   *obs.Registry
	tracer    *span.Tracer
	now       func() time.Time

	mu    sync.Mutex
	jobs  map[string]*job
	order []string // job IDs in submission order, the lease scan order
}

// shard lease states.
const (
	shardPending = iota
	shardLeased
	shardDone
)

type shard struct {
	units    []int // unit indices, in job order
	state    int
	worker   string
	token    int64
	deadline time.Time
}

type job struct {
	id      string
	kind    string
	payload json.RawMessage
	task    Task

	results      []*UnitResult // by unit index; nil = outstanding
	doneUnits    int
	cachedUnits  int
	resumedUnits int
	failures     int

	shards     []*shard
	doneShards int
	reclaimed  int
	nextToken  int64

	// root is the job's span context: every coordinator span for this
	// job parents under it, and leases carry it to workers so their
	// shard spans join the same trace.
	root span.Context

	checkpoint *bufio.Writer
	checkfile  *os.File
}

// NewServer builds a coordinator.
func NewServer(opts ServerOptions) *Server {
	runners := opts.Runners
	if runners == nil {
		runners = DefaultRunners()
	}
	shardSize := opts.ShardSize
	if shardSize <= 0 {
		shardSize = DefaultShardSize
	}
	ttl := opts.LeaseTTL
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	clock := opts.Clock
	if clock == nil {
		clock = time.Now
	}
	return &Server{
		runners:   runners,
		cache:     opts.Cache,
		dataDir:   opts.DataDir,
		shardSize: shardSize,
		leaseTTL:  ttl,
		metrics:   opts.Metrics,
		tracer:    opts.Tracer,
		now:       clock,
		jobs:      make(map[string]*job),
	}
}

// Close flushes and closes every job checkpoint.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, id := range s.order {
		j := s.jobs[id]
		if err := j.closeCheckpoint(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (j *job) closeCheckpoint() error {
	if j.checkfile == nil {
		return nil
	}
	var first error
	if err := j.checkpoint.Flush(); err != nil {
		first = err
	}
	if err := j.checkfile.Close(); err != nil && first == nil {
		first = err
	}
	j.checkpoint, j.checkfile = nil, nil
	return first
}

// Submit registers a job (idempotently) and returns its status. It is
// the in-process form of POST /v1/jobs.
func (s *Server) Submit(req SubmitRequest) (*SubmitResponse, error) {
	return s.submit(req, span.Context{})
}

// submit is Submit with a span parent (from the X-Rt-Trace header on
// the HTTP path). With no parent, the job's trace derives from the
// job's content address, so identical submissions join one trace.
func (s *Server) submit(req SubmitRequest, parent span.Context) (*SubmitResponse, error) {
	runner := s.runners[req.Kind]
	if runner == nil {
		return nil, fmt.Errorf("dist: unknown job kind %q", req.Kind)
	}
	task, err := runner.Open(req.Payload)
	if err != nil {
		return nil, err
	}
	id := contentID(req.Kind, req.Payload)

	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok {
		return &SubmitResponse{JobID: j.id, Units: len(j.results), Cached: j.cachedUnits, Resumed: j.resumedUnits}, nil
	}

	if !parent.Valid() {
		parent = span.NewTrace(id)
	}
	sub := s.tracer.Start(parent, "coordinator.submit", id, span.A("kind", req.Kind))
	j := &job{
		id:      id,
		kind:    req.Kind,
		payload: append(json.RawMessage(nil), req.Payload...),
		task:    task,
		results: make([]*UnitResult, task.Units()),
		root:    sub.Context(),
	}
	if err := s.restoreCheckpoint(j); err != nil {
		return nil, err
	}
	// Satisfy whatever the checkpoint did not cover from the cache.
	for i := range j.results {
		if j.results[i] != nil {
			continue
		}
		result, failures, ok := s.cache.Get(task.CacheKey(i))
		if !ok {
			continue
		}
		j.results[i] = &UnitResult{Unit: i, Key: task.Key(i), Failures: failures, Result: result}
		j.doneUnits++
		j.cachedUnits++
		j.failures += failures
		hit := s.tracer.Start(sub.Context(), "coordinator.cache_hit", task.Key(i))
		hit.End()
	}
	part := s.tracer.Start(sub.Context(), "coordinator.partition", id)
	j.shards = partition(j.results, s.shardSize)
	part.EndWith(span.A("shards", strconv.Itoa(len(j.shards))))
	if s.dataDir != "" && j.doneUnits < len(j.results) {
		if err := s.openCheckpoint(j); err != nil {
			return nil, err
		}
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.metrics.Counter("dist_jobs_total").Inc()
	s.metrics.Counter("dist_units_total").Add(int64(len(j.results)))
	sub.EndWith(
		span.A("cached", strconv.Itoa(j.cachedUnits)),
		span.A("resumed", strconv.Itoa(j.resumedUnits)),
		span.A("units", strconv.Itoa(len(j.results))))
	return &SubmitResponse{JobID: id, Units: len(j.results), Cached: j.cachedUnits, Resumed: j.resumedUnits}, nil
}

// partition groups the outstanding unit indices into shards of at most
// shardSize units, in unit order.
func partition(results []*UnitResult, shardSize int) []*shard {
	var shards []*shard
	var cur *shard
	for i, r := range results {
		if r != nil {
			continue
		}
		if cur == nil || len(cur.units) == shardSize {
			cur = &shard{}
			shards = append(shards, cur)
		}
		cur.units = append(cur.units, i)
	}
	return shards
}

func (s *Server) checkpointPath(id string) string {
	return filepath.Join(s.dataDir, "jobs", id+".jsonl")
}

// restoreCheckpoint replays a prior run's checkpoint into the job. Torn
// trailing lines (a crashed coordinator's last write) and entries that
// no longer match the task are skipped.
func (s *Server) restoreCheckpoint(j *job) error {
	if s.dataDir == "" {
		return nil
	}
	f, err := os.Open(s.checkpointPath(j.id))
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("dist: checkpoint: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		var r UnitResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			continue
		}
		if r.Unit < 0 || r.Unit >= len(j.results) || r.Key != j.task.Key(r.Unit) || j.results[r.Unit] != nil {
			continue
		}
		cp := r
		j.results[r.Unit] = &cp
		j.doneUnits++
		j.resumedUnits++
		j.failures += r.Failures
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("dist: checkpoint: %w", err)
	}
	return nil
}

func (s *Server) openCheckpoint(j *job) error {
	path := s.checkpointPath(j.id)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("dist: checkpoint: %w", err)
	}
	f, err := campaign.OpenAppend(path)
	if err != nil {
		return fmt.Errorf("dist: checkpoint: %w", err)
	}
	j.checkfile = f
	j.checkpoint = bufio.NewWriter(f)
	return nil
}

// Lease grants a shard from the oldest incomplete job: the first
// pending shard, else the first expired lease (reclaimed — the
// work-stealing path). It is the in-process form of POST /v1/lease.
func (s *Server) Lease(req LeaseRequest) *LeaseResponse {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	anyIncomplete := false
	for _, id := range s.order {
		j := s.jobs[id]
		if j.doneUnits == len(j.results) {
			continue
		}
		anyIncomplete = true
		for si, sh := range j.shards {
			reclaimed := false
			switch sh.state {
			case shardDone:
				continue
			case shardLeased:
				if sh.deadline.After(now) {
					continue
				}
				reclaimed = true
				j.reclaimed++
				s.metrics.Counter("dist_leases_reclaimed").Inc()
				expire := s.tracer.Start(j.root, "coordinator.expire", shardKey(j.id, si),
					span.A("worker", sh.worker))
				expire.End()
			case shardPending:
			}
			j.nextToken++
			sh.state = shardLeased
			sh.worker = req.Worker
			sh.token = j.nextToken
			sh.deadline = now.Add(s.leaseTTL)
			s.metrics.Counter("dist_leases_granted").Inc()
			lease := s.tracer.Start(j.root, "coordinator.lease", shardKey(j.id, si),
				span.A("worker", req.Worker))
			if reclaimed {
				lease.SetAttr("reclaimed", "true")
			}
			lease.End()
			return &LeaseResponse{
				JobID:     j.id,
				Shard:     si,
				Units:     append([]int(nil), sh.units...),
				Token:     sh.token,
				TTLMillis: s.leaseTTL.Milliseconds(),
				Reclaimed: reclaimed,
				Kind:      j.kind,
				Payload:   j.payload,
				Span:      j.root.Header(),
			}
		}
	}
	// No jobs at all is Wait, not Done: a worker attached to a fresh
	// coordinator should idle until the first submission, while Done
	// (every known job complete) lets test and batch workers drain out.
	if anyIncomplete || len(s.order) == 0 {
		return &LeaseResponse{Wait: true}
	}
	return &LeaseResponse{Done: true}
}

// Ingest accepts a batch of unit results for a leased shard. The token
// fences stale holders: a submission whose lease was stolen is refused
// whole. Units already ingested (a duplicate after reclaim) are
// dropped — results are deterministic, so dropping either copy is
// equivalent — and each unit is counted exactly once no matter how many
// times its shard ran. It is the in-process form of
// POST /v1/jobs/{id}/shards/{shard}/results.
func (s *Server) Ingest(jobID string, shardIdx int, token int64, results []UnitResult) (*IngestResponse, error) {
	return s.ingest(jobID, shardIdx, token, results, span.Context{})
}

// shardKey is the stable span key of one shard of one job.
func shardKey(jobID string, shard int) string {
	return jobID + "/" + strconv.Itoa(shard)
}

// ingest is Ingest with a span parent. The parent normally arrives in
// the X-Rt-Trace header from the worker's shard span, so the ingest
// span nests under the computation that produced the results; without
// one it falls back to the job's root context.
func (s *Server) ingest(jobID string, shardIdx int, token int64, results []UnitResult, parent span.Context) (*IngestResponse, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[jobID]
	if j == nil {
		return nil, errNotFound{fmt.Sprintf("unknown job %q", jobID)}
	}
	if !parent.Valid() {
		parent = j.root
	}
	if shardIdx < 0 || shardIdx >= len(j.shards) {
		return nil, errNotFound{fmt.Sprintf("job %s has no shard %d", jobID, shardIdx)}
	}
	sh := j.shards[shardIdx]
	if sh.state != shardLeased || sh.token != token {
		return nil, errConflict{fmt.Sprintf("job %s shard %d: lease token %d is not current", jobID, shardIdx, token)}
	}
	ing := s.tracer.Start(parent, "coordinator.ingest", shardKey(jobID, shardIdx))
	inShard := make(map[int]bool, len(sh.units))
	for _, u := range sh.units {
		inShard[u] = true
	}
	resp := &IngestResponse{}
	for i := range results {
		r := results[i]
		if !inShard[r.Unit] || j.results[r.Unit] != nil {
			continue
		}
		if r.Key != j.task.Key(r.Unit) {
			return nil, errBadRequest{fmt.Sprintf("job %s unit %d: key %q, want %q", jobID, r.Unit, r.Key, j.task.Key(r.Unit))}
		}
		cp := r
		j.results[r.Unit] = &cp
		j.doneUnits++
		j.failures += r.Failures
		resp.Accepted++
		s.metrics.Counter("dist_units_done").Inc()
		if j.checkpoint != nil {
			line, err := json.Marshal(&cp)
			if err == nil {
				_, err = j.checkpoint.Write(append(line, '\n'))
			}
			if err != nil {
				return nil, fmt.Errorf("dist: checkpoint: %w", err)
			}
		}
		if err := s.cache.Put(j.task.CacheKey(r.Unit), r.Result, r.Failures); err != nil {
			return nil, err
		}
	}
	if j.checkpoint != nil {
		if err := j.checkpoint.Flush(); err != nil {
			return nil, fmt.Errorf("dist: checkpoint: %w", err)
		}
	}
	// The shard is done once every one of its units is in, regardless
	// of which submission supplied them.
	done := true
	for _, u := range sh.units {
		if j.results[u] == nil {
			done = false
			break
		}
	}
	if done {
		sh.state = shardDone
		j.doneShards++
		resp.ShardDone = true
	}
	if j.doneUnits == len(j.results) {
		if err := j.closeCheckpoint(); err != nil {
			return nil, fmt.Errorf("dist: checkpoint: %w", err)
		}
	}
	ing.EndWith(
		span.A("accepted", strconv.Itoa(resp.Accepted)),
		span.A("shard_done", strconv.FormatBool(resp.ShardDone)))
	return resp, nil
}

// Status reports one job. In-process form of GET /v1/jobs/{id}.
func (s *Server) Status(jobID string) (*JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[jobID]
	if j == nil {
		return nil, errNotFound{fmt.Sprintf("unknown job %q", jobID)}
	}
	st := &JobStatus{
		JobID:        j.id,
		Kind:         j.kind,
		Units:        len(j.results),
		DoneUnits:    j.doneUnits,
		CachedUnits:  j.cachedUnits,
		ResumedUnits: j.resumedUnits,
		Shards:       len(j.shards),
		DoneShards:   j.doneShards,
		Reclaimed:    j.reclaimed,
		Failures:     j.failures,
		Complete:     j.doneUnits == len(j.results),
	}
	now := s.now()
	for _, sh := range j.shards {
		if sh.state == shardLeased && sh.deadline.After(now) {
			st.LeasedShards++
		}
	}
	return st, nil
}

// Results returns the job's ingested results in unit order, starting at
// unit `from` and stopping at the first outstanding unit. On a complete
// job that is the whole remaining suffix, so clients can stream
// incrementally and always end up with every unit exactly once, in
// order. In-process form of GET /v1/jobs/{id}/results.
func (s *Server) Results(jobID string, from int) ([]UnitResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[jobID]
	if j == nil {
		return nil, errNotFound{fmt.Sprintf("unknown job %q", jobID)}
	}
	if from < 0 {
		from = 0
	}
	var out []UnitResult
	for i := from; i < len(j.results) && j.results[i] != nil; i++ {
		out = append(out, *j.results[i])
	}
	return out, nil
}

// Typed errors so the HTTP layer can map server errors to status codes.
type errNotFound struct{ msg string }
type errConflict struct{ msg string }
type errBadRequest struct{ msg string }

func (e errNotFound) Error() string   { return "dist: " + e.msg }
func (e errConflict) Error() string   { return "dist: " + e.msg }
func (e errBadRequest) Error() string { return "dist: " + e.msg }

// Handler returns the coordinator's HTTP API plus the ops endpoint:
// /metrics (Prometheus text exposition), /metrics.json, /debug/vars
// and /debug/pprof/ (obs.DebugHandler over the server's registry),
// with per-route request-count and latency metrics folded into the
// same registry.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/jobs", s.instrument("submit", s.handleSubmit))
	mux.HandleFunc("/v1/lease", s.instrument("lease", s.handleLease))
	mux.HandleFunc("/v1/jobs/", s.instrument("jobs", s.handleJob))
	debug := obs.DebugHandler(s.metrics)
	mux.Handle("/metrics", debug)
	mux.Handle("/metrics.json", debug)
	mux.Handle("/debug/", debug)
	return mux
}

// instrument wraps a handler with per-route request accounting.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now() //rtlint:allow determinism request latency feeds the ops metrics only, never results
		h(w, r)
		s.metrics.Counter("dist_http_requests_total{route=" + route + "}").Inc()
		s.metrics.Histogram("dist_http_request_us{route=" + route + "}").Observe(time.Since(t0).Microseconds())
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch err.(type) {
	case errNotFound:
		status = http.StatusNotFound
	case errConflict:
		status = http.StatusConflict
	case errBadRequest:
		status = http.StatusBadRequest
	default:
	}
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST only"})
		return
	}
	var req SubmitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	parent, _ := span.ParseHeader(r.Header.Get(span.HeaderName))
	resp, err := s.submit(req, parent)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST only"})
		return
	}
	var req LeaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, s.Lease(req))
}

// handleJob routes /v1/jobs/{id}[...]:
//
//	GET  /v1/jobs/{id}                           status
//	GET  /v1/jobs/{id}/results?from=N            JSONL result stream
//	POST /v1/jobs/{id}/shards/{n}/results?token= JSONL shard ingest
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	parts := strings.Split(rest, "/")
	switch {
	case len(parts) == 1 && r.Method == http.MethodGet:
		st, err := s.Status(parts[0])
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	case len(parts) == 2 && parts[1] == "results" && r.Method == http.MethodGet:
		s.handleResults(w, r, parts[0])
	case len(parts) == 4 && parts[1] == "shards" && parts[3] == "results" && r.Method == http.MethodPost:
		s.handleIngest(w, r, parts[0], parts[2])
	default:
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "dist: no such route"})
	}
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request, jobID string) {
	from := 0
	if q := r.URL.Query().Get("from"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "dist: bad from offset"})
			return
		}
		from = v
	}
	results, err := s.Results(jobID, from)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	w.WriteHeader(http.StatusOK)
	bw := bufio.NewWriter(w)
	for i := range results {
		line, err := json.Marshal(&results[i])
		if err != nil {
			return
		}
		bw.Write(line)
		bw.WriteByte('\n')
	}
	bw.Flush()
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request, jobID, shardStr string) {
	shardIdx, err := strconv.Atoi(shardStr)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "dist: bad shard index"})
		return
	}
	token, err := strconv.ParseInt(r.URL.Query().Get("token"), 10, 64)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "dist: bad or missing lease token"})
		return
	}
	var results []UnitResult
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var u UnitResult
		if err := json.Unmarshal(sc.Bytes(), &u); err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "dist: bad result line: " + err.Error()})
			return
		}
		results = append(results, u)
	}
	if err := sc.Err(); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	parent, _ := span.ParseHeader(r.Header.Get(span.HeaderName))
	resp, err := s.ingest(jobID, shardIdx, token, results, parent)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}
