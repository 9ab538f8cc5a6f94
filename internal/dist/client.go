package dist

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"mpcp/internal/campaign"
	"mpcp/internal/conformance"
	"mpcp/internal/obs"
	"mpcp/internal/obs/span"
)

// Client is the HTTP client for a coordinator.
type Client struct {
	// BaseURL is the coordinator's root, e.g. "http://127.0.0.1:7632".
	BaseURL string
	// HTTP overrides the transport; nil means http.DefaultClient.
	HTTP *http.Client

	// sc, when valid, is sent as the X-Rt-Trace header on every
	// request so coordinator spans parent under the caller's span.
	sc span.Context
}

// WithSpan returns a copy of the client that stamps every request with
// the given span context (the X-Rt-Trace header). The zero context
// returns a copy that sends no header.
func (c *Client) WithSpan(sc span.Context) *Client {
	cp := *c
	cp.sc = sc
	return &cp
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// apiError is a non-2xx response, preserving the status code so callers
// can distinguish conflicts (lost leases) from real failures.
type apiError struct {
	Status  int
	Message string
}

func (e *apiError) Error() string {
	return fmt.Sprintf("dist: server returned %d: %s", e.Status, e.Message)
}

// isConflict reports whether err is an HTTP 409 (stale lease token).
func isConflict(err error) bool {
	ae, ok := err.(*apiError)
	return ok && ae.Status == http.StatusConflict
}

func (c *Client) do(method, path string, body io.Reader, out any) error {
	req, err := http.NewRequest(method, c.BaseURL+path, body)
	if err != nil {
		return fmt.Errorf("dist: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.sc.Valid() {
		req.Header.Set(span.HeaderName, c.sc.Header())
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return fmt.Errorf("dist: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var e errorResponse
		msg := resp.Status
		if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
			msg = e.Error
		}
		return &apiError{Status: resp.StatusCode, Message: msg}
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("dist: decode response: %w", err)
	}
	return nil
}

func marshalBody(v any) (io.Reader, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	return bytes.NewReader(b), nil
}

// Submit registers a job. Idempotent: resubmitting the same kind and
// payload attaches to the existing job.
func (c *Client) Submit(kind string, payload any) (*SubmitResponse, error) {
	raw, err := json.Marshal(payload)
	if err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	body, err := marshalBody(SubmitRequest{Kind: kind, Payload: raw})
	if err != nil {
		return nil, err
	}
	var resp SubmitResponse
	if err := c.do(http.MethodPost, "/v1/jobs", body, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Lease asks for a shard from any incomplete job.
func (c *Client) Lease(req LeaseRequest) (*LeaseResponse, error) {
	body, err := marshalBody(req)
	if err != nil {
		return nil, err
	}
	var resp LeaseResponse
	if err := c.do(http.MethodPost, "/v1/lease", body, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// SubmitResults streams a shard's unit results (JSONL) under the lease
// token. A stale token yields an HTTP 409 (see isConflict).
func (c *Client) SubmitResults(jobID string, shard int, token int64, results []UnitResult) (*IngestResponse, error) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	for i := range results {
		line, err := json.Marshal(&results[i])
		if err != nil {
			return nil, fmt.Errorf("dist: %w", err)
		}
		w.Write(line)
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	path := fmt.Sprintf("/v1/jobs/%s/shards/%d/results?token=%s",
		url.PathEscape(jobID), shard, strconv.FormatInt(token, 10))
	var resp IngestResponse
	if err := c.do(http.MethodPost, path, &buf, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Status fetches one job's status.
func (c *Client) Status(jobID string) (*JobStatus, error) {
	var st JobStatus
	if err := c.do(http.MethodGet, "/v1/jobs/"+url.PathEscape(jobID), nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Results fetches the job's ingested result prefix starting at unit
// `from` (see Server.Results).
func (c *Client) Results(jobID string, from int) ([]UnitResult, error) {
	path := fmt.Sprintf("/v1/jobs/%s/results?from=%d", url.PathEscape(jobID), from)
	req, err := http.NewRequest(http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	if c.sc.Valid() {
		req.Header.Set(span.HeaderName, c.sc.Header())
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var e errorResponse
		msg := resp.Status
		if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
			msg = e.Error
		}
		return nil, &apiError{Status: resp.StatusCode, Message: msg}
	}
	var out []UnitResult
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var u UnitResult
		if err := json.Unmarshal(sc.Bytes(), &u); err != nil {
			return nil, fmt.Errorf("dist: decode result line: %w", err)
		}
		out = append(out, u)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	return out, nil
}

// RemoteShards is the campaign executor backed by a coordinator: it
// submits the outstanding points as a sweep job and streams results
// back as shards complete. campaign.Run keeps doing everything else —
// checkpointing, resume, progress, the spec-order rewrite — so the
// result file is byte-identical to a LocalPool run of the same spec.
type RemoteShards struct {
	// Client targets the coordinator.
	Client *Client
	// Poll is the result-poll interval while the job runs; <= 0 means
	// 200ms.
	Poll time.Duration
	// Metrics (nil-safe) receives dist_remote_points and the cache /
	// resume counts reported by the coordinator at submit
	// (dist_remote_cached / dist_remote_resumed).
	Metrics *obs.Registry

	// tracer and parent are installed by campaign.Run through the
	// campaign.SpanExecutor interface, so the submit span — and,
	// through the X-Rt-Trace header, the whole coordinator-side tree —
	// nests under the campaign's root span.
	tracer *span.Tracer
	parent span.Context
}

// SetSpan implements campaign.SpanExecutor.
func (r *RemoteShards) SetSpan(tr *span.Tracer, parent span.Context) {
	r.tracer, r.parent = tr, parent
}

// Execute implements campaign.Executor.
func (r *RemoteShards) Execute(spec *campaign.Spec, points []campaign.Point, collect func(*campaign.PointResult)) error {
	keys := make([]string, len(points))
	for i, pt := range points {
		keys[i] = pt.Key
	}
	payload := SweepPayload{Spec: spec, Keys: keys}
	raw, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("dist: %w", err)
	}
	// The job ID is computable client-side (it is the content address
	// of the submission), so the submit span can be keyed by it before
	// the coordinator has even seen the job.
	sp := r.tracer.Start(r.parent, "sweep.submit", contentID(KindSweep, raw))
	client := r.Client.WithSpan(sp.Context())
	sub, err := client.Submit(KindSweep, payload)
	if err != nil {
		return err
	}
	r.Metrics.Counter("dist_remote_cached").Add(int64(sub.Cached))
	r.Metrics.Counter("dist_remote_resumed").Add(int64(sub.Resumed))
	collectUnit := func(u UnitResult) error {
		var pr campaign.PointResult
		if err := json.Unmarshal(u.Result, &pr); err != nil {
			return fmt.Errorf("dist: decode point result for %s: %w", u.Key, err)
		}
		r.Metrics.Counter("dist_remote_points").Inc()
		collect(&pr)
		return nil
	}
	if err := streamJob(client, sub, r.Poll, collectUnit); err != nil {
		return err
	}
	sp.EndWith(
		span.A("cached", strconv.Itoa(sub.Cached)),
		span.A("resumed", strconv.Itoa(sub.Resumed)),
		span.A("units", strconv.Itoa(sub.Units)))
	return nil
}

// streamJob polls the coordinator until every unit of the job has been
// fetched, delivering units in order exactly once.
func streamJob(c *Client, sub *SubmitResponse, poll time.Duration, collect func(UnitResult) error) error {
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	from := 0
	for from < sub.Units {
		batch, err := c.Results(sub.JobID, from)
		if err != nil {
			return err
		}
		for _, u := range batch {
			if err := collect(u); err != nil {
				return err
			}
		}
		from += len(batch)
		if from >= sub.Units {
			break
		}
		if len(batch) == 0 {
			time.Sleep(poll)
		}
	}
	return nil
}

// RunConformance executes a conformance campaign on a coordinator and
// reassembles the local-format report: unit order matches
// conformance.Run's (protocol-major, trial-minor) and repro persistence
// happens client-side under opts.ReproDir, so the report — including
// repro paths and bytes — matches a local run of the same options.
// opts.Workers is ignored; parallelism belongs to the service's
// workers.
func RunConformance(c *Client, opts conformance.Options, poll time.Duration) (*conformance.Report, error) {
	opts, err := conformance.Normalize(opts)
	if err != nil {
		return nil, err
	}
	payload := ConformancePayload{
		Protocols: opts.Protocols,
		Trials:    opts.Trials,
		BaseSeed:  opts.BaseSeed,
		Shrink:    opts.Shrink,
		Horizon:   opts.Horizon,
		Workload:  opts.Workload,
	}
	sub, err := c.Submit(KindConformance, payload)
	if err != nil {
		return nil, err
	}
	rep := &conformance.Report{
		Protocols: payload.Protocols,
		Trials:    payload.Trials,
		BaseSeed:  payload.BaseSeed,
		Results:   make([]conformance.TrialResult, 0, sub.Units),
	}
	collect := func(u UnitResult) error {
		var tr conformance.TrialResult
		if err := json.Unmarshal(u.Result, &tr); err != nil {
			return fmt.Errorf("dist: decode trial result for %s: %w", u.Key, err)
		}
		if opts.ReproDir != "" && tr.Repro != nil {
			path, err := conformance.WriteRepro(opts.ReproDir, tr.Repro)
			if err != nil {
				return err
			}
			tr.ReproPath = path
		}
		rep.Results = append(rep.Results, tr)
		return nil
	}
	if err := streamJob(c, sub, poll, collect); err != nil {
		return nil, err
	}
	return rep, nil
}
