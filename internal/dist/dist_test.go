package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mpcp/internal/campaign"
	"mpcp/internal/conformance"
	"mpcp/internal/obs"
)

// testSpec is a small 4-point grid (2 protocols x 2 utils) that still
// exercises generation, analysis and simulation.
func testSpec() *campaign.Spec {
	s := campaign.DefaultSpec()
	s.Name = "dist-test"
	s.SeedsPerPoint = 2
	s.Protocols = []string{campaign.ProtoMPCP, campaign.ProtoDPCP}
	s.Utils = []float64{0.35, 0.55}
	s.Procs = []int{2}
	s.TasksPerProc = []int{3}
	s.CSMax = []int{4}
	s.Simulate = true
	s.SimTickBudget = 10_000
	return s
}

// localJSONL runs the spec on the in-process pool and returns the final
// result file bytes — the reference every distributed run must match.
func localJSONL(t *testing.T, spec *campaign.Spec) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "local.jsonl")
	if _, err := campaign.Run(spec, campaign.Options{Workers: 1, ResultsPath: path}); err != nil {
		t.Fatalf("local run: %v", err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) == 0 {
		t.Fatal("empty local result file")
	}
	return b
}

// fakeClock is an injectable lease clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.t = f.t.Add(d)
}

// newTestServer starts a coordinator behind httptest and returns its
// client.
func newTestServer(t *testing.T, opts ServerOptions) (*Server, *Client) {
	t.Helper()
	srv := NewServer(opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, &Client{BaseURL: ts.URL}
}

// submitSweep submits the spec (all points) as a sweep job.
func submitSweep(t *testing.T, c *Client, spec *campaign.Spec) *SubmitResponse {
	t.Helper()
	spec.FillDefaults()
	sub, err := c.Submit(KindSweep, SweepPayload{Spec: spec})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	return sub
}

// step performs one manual lease/compute/submit cycle, reusing opened
// tasks, and returns the lease response (which may be Done or Wait).
type manualWorker struct {
	t     *testing.T
	c     *Client
	tasks map[string]Task
}

func newManualWorker(t *testing.T, c *Client) *manualWorker {
	return &manualWorker{t: t, c: c, tasks: make(map[string]Task)}
}

func (m *manualWorker) lease(name string) *LeaseResponse {
	m.t.Helper()
	lease, err := m.c.Lease(LeaseRequest{Worker: name})
	if err != nil {
		m.t.Fatalf("lease: %v", err)
	}
	return lease
}

func (m *manualWorker) compute(lease *LeaseResponse) []UnitResult {
	m.t.Helper()
	task := m.tasks[lease.JobID]
	if task == nil {
		runner := DefaultRunners()[lease.Kind]
		var err error
		task, err = runner.Open(lease.Payload)
		if err != nil {
			m.t.Fatalf("open task: %v", err)
		}
		m.tasks[lease.JobID] = task
	}
	out := make([]UnitResult, 0, len(lease.Units))
	for _, u := range lease.Units {
		result, failures, err := task.Run(u, nil)
		if err != nil {
			m.t.Fatalf("run unit %d: %v", u, err)
		}
		out = append(out, UnitResult{Unit: u, Key: task.Key(u), Failures: failures, Result: result})
	}
	return out
}

// step leases, computes and submits one shard. Returns the lease.
func (m *manualWorker) step(name string) *LeaseResponse {
	m.t.Helper()
	lease := m.lease(name)
	if lease.Done || lease.Wait {
		return lease
	}
	if _, err := m.c.SubmitResults(lease.JobID, lease.Shard, lease.Token, m.compute(lease)); err != nil {
		m.t.Fatalf("submit results: %v", err)
	}
	return lease
}

// drain steps until the coordinator reports Done or Wait.
func (m *manualWorker) drain(name string) {
	m.t.Helper()
	for i := 0; i < 1000; i++ {
		lease := m.step(name)
		if lease.Done || lease.Wait {
			return
		}
	}
	m.t.Fatal("drain did not terminate")
}

// mergedJSONL fetches every unit result and renders the merged JSONL
// artifact (one result document per line, unit order).
func mergedJSONL(t *testing.T, c *Client, jobID string, units int) []byte {
	t.Helper()
	rs, err := c.Results(jobID, 0)
	if err != nil {
		t.Fatalf("results: %v", err)
	}
	if len(rs) != units {
		t.Fatalf("fetched %d unit results, want %d", len(rs), units)
	}
	var buf bytes.Buffer
	for _, u := range rs {
		buf.Write(u.Result)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// TestLeaseFaultInjection is the lease-protocol fault drill: a worker
// takes a shard and dies, its lease expires, another worker steals the
// shard, and the merged output is byte-identical to a single-process
// run with every unit counted exactly once.
func TestLeaseFaultInjection(t *testing.T) {
	clock := newFakeClock()
	srv, client := newTestServer(t, ServerOptions{
		ShardSize: 1,
		LeaseTTL:  time.Minute,
		Clock:     clock.now,
	})
	_ = srv
	spec := testSpec()
	want := localJSONL(t, spec)

	sub := submitSweep(t, client, spec)
	if sub.Units != 4 {
		t.Fatalf("units = %d, want 4", sub.Units)
	}

	// Worker A claims the first shard and dies without submitting.
	mw := newManualWorker(t, client)
	dead := mw.lease("worker-a")
	if dead.Wait || dead.Done || len(dead.Units) != 1 {
		t.Fatalf("worker-a lease = %+v, want a 1-unit grant", dead)
	}

	// Worker B drains everything else, then finds only A's shard
	// outstanding — still leased, so it must wait, not steal early.
	mw.drain("worker-b")
	if lease := mw.lease("worker-b"); !lease.Wait {
		t.Fatalf("expected Wait while worker-a's lease is live, got %+v", lease)
	}
	st, err := client.Status(sub.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Complete || st.DoneUnits != 3 {
		t.Fatalf("status before expiry = %+v, want 3/4 done", st)
	}

	// The lease expires; worker B steals the shard and completes.
	clock.advance(2 * time.Minute)
	lease := mw.step("worker-b")
	if !lease.Reclaimed || lease.Shard != dead.Shard {
		t.Fatalf("expected reclaimed lease for shard %d, got %+v", dead.Shard, lease)
	}
	st, err = client.Status(sub.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Complete {
		t.Fatalf("job not complete after steal: %+v", st)
	}
	if st.Reclaimed != 1 {
		t.Errorf("reclaimed = %d, want 1", st.Reclaimed)
	}

	got := mergedJSONL(t, client, sub.JobID, sub.Units)
	if !bytes.Equal(got, want) {
		t.Errorf("merged output differs from single-process run:\n%s\nvs\n%s", got, want)
	}

	// Failure accounting: merged failures match the local run's, and
	// nothing was double-counted through the crash/steal cycle.
	wantFailures := countFailures(t, want)
	if st.Failures != wantFailures {
		t.Errorf("job failures = %d, want %d", st.Failures, wantFailures)
	}
}

func countFailures(t *testing.T, jsonl []byte) int {
	t.Helper()
	n := 0
	for _, line := range bytes.Split(bytes.TrimSpace(jsonl), []byte("\n")) {
		var r campaign.PointResult
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatalf("bad result line %q: %v", line, err)
		}
		n += r.Failures()
	}
	return n
}

// TestStaleLeaseFenced: the original holder's late submission after a
// steal is refused whole, and the unit is still counted exactly once.
func TestStaleLeaseFenced(t *testing.T) {
	clock := newFakeClock()
	_, client := newTestServer(t, ServerOptions{
		ShardSize: 4,
		LeaseTTL:  time.Minute,
		Clock:     clock.now,
	})
	spec := testSpec()
	sub := submitSweep(t, client, spec)

	mw := newManualWorker(t, client)
	slow := mw.lease("slow")
	results := mw.compute(slow)

	// The lease expires and the shard is re-issued before the slow
	// worker submits.
	clock.advance(2 * time.Minute)
	fast := mw.step("fast")
	if !fast.Reclaimed {
		t.Fatalf("expected reclaimed lease, got %+v", fast)
	}

	// The slow worker's submission carries a stale fencing token.
	if _, err := client.SubmitResults(slow.JobID, slow.Shard, slow.Token, results); !isConflict(err) {
		t.Fatalf("stale submission: got %v, want HTTP 409 conflict", err)
	}

	st, err := client.Status(sub.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Complete || st.DoneUnits != sub.Units {
		t.Fatalf("status = %+v, want complete with %d units", st, sub.Units)
	}
}

// TestExecutorEquivalence: the same spec through LocalPool and through
// RemoteShards (1 and 4 remote workers) produces byte-identical JSONL.
func TestExecutorEquivalence(t *testing.T) {
	spec := testSpec()
	want := localJSONL(t, spec)

	for _, workers := range []int{1, 4} {
		_, client := newTestServer(t, ServerOptions{ShardSize: 1})
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			w := &Worker{Client: client, Name: "eq", Workers: 1, Poll: 2 * time.Millisecond}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := w.Run(ctx); err != nil && ctx.Err() == nil {
					t.Errorf("worker: %v", err)
				}
			}()
		}

		path := filepath.Join(t.TempDir(), "remote.jsonl")
		_, err := campaign.Run(testSpec(), campaign.Options{
			ResultsPath: path,
			Executor:    &RemoteShards{Client: client, Poll: 2 * time.Millisecond},
		})
		cancel()
		wg.Wait()
		if err != nil {
			t.Fatalf("remote run (%d workers): %v", workers, err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("remote run with %d workers differs from LocalPool:\n%s\nvs\n%s", workers, got, want)
		}
	}
}

// TestCheckpointResume: a coordinator that dies mid-job resumes from
// its checkpoint on restart instead of recomputing ingested units, and
// the final output is unchanged.
func TestCheckpointResume(t *testing.T) {
	dataDir := t.TempDir()
	spec := testSpec()
	want := localJSONL(t, spec)

	srv1 := NewServer(ServerOptions{ShardSize: 1, DataDir: dataDir})
	ts1 := httptest.NewServer(srv1.Handler())
	client1 := &Client{BaseURL: ts1.URL}
	sub1 := submitSweep(t, client1, spec)

	// Complete exactly two shards, then "crash" the coordinator.
	mw1 := newManualWorker(t, client1)
	mw1.step("w")
	mw1.step("w")
	ts1.Close()
	if err := srv1.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Restart on the same data dir; resubmitting the same job restores
	// the two ingested units from the checkpoint.
	_, client2 := newTestServer(t, ServerOptions{ShardSize: 1, DataDir: dataDir})
	sub2 := submitSweep(t, client2, spec)
	if sub2.JobID != sub1.JobID {
		t.Fatalf("job ID changed across restart: %s vs %s", sub2.JobID, sub1.JobID)
	}
	if sub2.Resumed != 2 {
		t.Fatalf("resumed = %d, want 2", sub2.Resumed)
	}
	newManualWorker(t, client2).drain("w")

	got := mergedJSONL(t, client2, sub2.JobID, sub2.Units)
	if !bytes.Equal(got, want) {
		t.Errorf("resumed output differs from single-process run:\n%s\nvs\n%s", got, want)
	}
}

// TestCheckpointResumeAfterTornTail: a coordinator that restarts on a
// checkpoint whose last line a crash tore must not fuse its next record
// with the fragment, so a second restart restores every unit ingested
// after the tear.
func TestCheckpointResumeAfterTornTail(t *testing.T) {
	dataDir := t.TempDir()
	spec := testSpec()
	want := localJSONL(t, spec)

	// crashAfter starts a coordinator on dataDir, submits the sweep,
	// ingests n shards and closes the coordinator as a crash would.
	crashAfter := func(n int) *SubmitResponse {
		srv := NewServer(ServerOptions{ShardSize: 1, DataDir: dataDir})
		ts := httptest.NewServer(srv.Handler())
		client := &Client{BaseURL: ts.URL}
		sub := submitSweep(t, client, spec)
		mw := newManualWorker(t, client)
		for i := 0; i < n; i++ {
			mw.step("w")
		}
		ts.Close()
		if err := srv.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		return sub
	}

	sub := crashAfter(2)
	path := filepath.Join(dataDir, "jobs", sub.JobID+".jsonl")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if err := os.WriteFile(path, []byte(lines[0]+lines[1][:len(lines[1])/2]), 0o644); err != nil {
		t.Fatal(err)
	}

	if sub := crashAfter(2); sub.Resumed != 1 {
		t.Fatalf("first restart resumed %d units, want 1 (the line before the tear)", sub.Resumed)
	}
	_, client := newTestServer(t, ServerOptions{ShardSize: 1, DataDir: dataDir})
	sub = submitSweep(t, client, spec)
	if sub.Resumed != 3 {
		t.Fatalf("second restart resumed %d units, want 3 (one before the tear, two appended after it)", sub.Resumed)
	}
	newManualWorker(t, client).drain("w")
	if got := mergedJSONL(t, client, sub.JobID, sub.Units); !bytes.Equal(got, want) {
		t.Errorf("resumed output differs from single-process run:\n%s\nvs\n%s", got, want)
	}
}

// TestCacheAcrossJobs: overlapping grids never recompute a point — the
// shared cells of a second campaign are satisfied from the cache at
// submit, with hit/miss counters visible in the obs snapshot.
func TestCacheAcrossJobs(t *testing.T) {
	reg := obs.NewRegistry()
	cache, err := NewCache(t.TempDir(), reg)
	if err != nil {
		t.Fatal(err)
	}
	_, client := newTestServer(t, ServerOptions{ShardSize: 2, Cache: cache, Metrics: reg})

	specA := testSpec() // utils 0.35, 0.55
	subA := submitSweep(t, client, specA)
	if subA.Cached != 0 {
		t.Fatalf("fresh cache reported %d hits", subA.Cached)
	}
	newManualWorker(t, client).drain("w")

	specB := testSpec()
	specB.Utils = []float64{0.55, 0.75} // overlaps specA at u0.55
	subB := submitSweep(t, client, specB)
	if subB.Cached != 2 { // u0.55 for each of the two protocols
		t.Fatalf("overlap cached = %d, want 2", subB.Cached)
	}
	newManualWorker(t, client).drain("w")

	want := localJSONL(t, testSpecUtils([]float64{0.55, 0.75}))
	got := mergedJSONL(t, client, subB.JobID, subB.Units)
	if !bytes.Equal(got, want) {
		t.Errorf("cached output differs from single-process run:\n%s\nvs\n%s", got, want)
	}

	snap := reg.Snapshot()
	if v := counterValue(snap, "dist_cache_hits"); v != 2 {
		t.Errorf("dist_cache_hits = %d, want 2", v)
	}
	if v := counterValue(snap, "dist_cache_misses"); v <= 0 {
		t.Errorf("dist_cache_misses = %d, want > 0", v)
	}
}

func testSpecUtils(utils []float64) *campaign.Spec {
	s := testSpec()
	s.Utils = utils
	return s
}

func counterValue(s *obs.Snapshot, name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return -1
}

// TestConformanceRemote: a conformance run through the service matches
// conformance.Run byte-for-byte, including shrunk repro files, and the
// deliberately faulty protocol's failures are accounted.
func TestConformanceRemote(t *testing.T) {
	opts := conformance.Options{
		Protocols: []string{"broken", "none"},
		Trials:    5,
		BaseSeed:  1,
		Shrink:    true,
	}

	localDir := filepath.Join(t.TempDir(), "local-repros")
	localOpts := opts
	localOpts.ReproDir = localDir
	localOpts.Workers = 1
	wantRep, err := conformance.Run(localOpts)
	if err != nil {
		t.Fatal(err)
	}
	if wantRep.Failures() == 0 {
		t.Fatal("broken protocol produced no failures; the test is vacuous")
	}

	_, client := newTestServer(t, ServerOptions{ShardSize: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	w := &Worker{Client: client, Name: "conf", Workers: 2, Poll: 2 * time.Millisecond}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := w.Run(ctx); err != nil && ctx.Err() == nil {
			t.Errorf("worker: %v", err)
		}
	}()

	remoteDir := filepath.Join(t.TempDir(), "remote-repros")
	remoteOpts := opts
	remoteOpts.ReproDir = remoteDir
	gotRep, err := RunConformance(client, remoteOpts, 2*time.Millisecond)
	cancel()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}

	wantJSON := mustJSON(t, rewriteReproDir(t, wantRep, localDir, remoteDir))
	gotJSON := mustJSON(t, gotRep)
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Errorf("remote report differs from local:\n%s\nvs\n%s", gotJSON, wantJSON)
	}

	// The repro files themselves are byte-identical, at identical
	// content-addressed names.
	wantFiles := listFiles(t, localDir)
	gotFiles := listFiles(t, remoteDir)
	if len(wantFiles) == 0 {
		t.Fatal("local run wrote no repros")
	}
	if len(wantFiles) != len(gotFiles) {
		t.Fatalf("repro files: local %v vs remote %v", wantFiles, gotFiles)
	}
	for i := range wantFiles {
		if wantFiles[i] != gotFiles[i] {
			t.Fatalf("repro names differ: %v vs %v", wantFiles, gotFiles)
		}
		wb, _ := os.ReadFile(filepath.Join(localDir, wantFiles[i]))
		gb, _ := os.ReadFile(filepath.Join(remoteDir, gotFiles[i]))
		if !bytes.Equal(wb, gb) {
			t.Errorf("repro %s differs between local and remote", wantFiles[i])
		}
	}

	// Failure accounting on the service side.
	sub, err := client.Submit(KindConformance, ConformancePayload{
		Protocols: opts.Protocols, Trials: opts.Trials, BaseSeed: opts.BaseSeed, Shrink: opts.Shrink,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := client.Status(sub.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Failures != wantRep.Failures() {
		t.Errorf("service failures = %d, want %d", st.Failures, wantRep.Failures())
	}
}

// rewriteReproDir maps the local report's repro paths into the remote
// directory so the two reports are comparable.
func rewriteReproDir(t *testing.T, rep *conformance.Report, from, to string) *conformance.Report {
	t.Helper()
	out := *rep
	out.Results = append([]conformance.TrialResult(nil), rep.Results...)
	for i := range out.Results {
		if p := out.Results[i].ReproPath; p != "" {
			rel, err := filepath.Rel(from, p)
			if err != nil {
				t.Fatal(err)
			}
			out.Results[i].ReproPath = filepath.Join(to, rel)
		}
	}
	return &out
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func listFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestSubmitIdempotent: resubmitting a job attaches to the existing
// state rather than restarting it.
func TestSubmitIdempotent(t *testing.T) {
	_, client := newTestServer(t, ServerOptions{ShardSize: 1})
	spec := testSpec()
	sub1 := submitSweep(t, client, spec)
	newManualWorker(t, client).drain("w")
	sub2 := submitSweep(t, client, spec)
	if sub1.JobID != sub2.JobID {
		t.Fatalf("job IDs differ: %s vs %s", sub1.JobID, sub2.JobID)
	}
	st, err := client.Status(sub2.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Complete {
		t.Fatalf("resubmission reset the job: %+v", st)
	}
}

// TestUnknownRoutes: the API returns structured errors.
func TestUnknownRoutes(t *testing.T) {
	_, client := newTestServer(t, ServerOptions{})
	if _, err := client.Status("nope"); err == nil {
		t.Error("status of unknown job succeeded")
	}
	if _, err := client.Submit("nope", struct{}{}); err == nil {
		t.Error("submit of unknown kind succeeded")
	}
}
