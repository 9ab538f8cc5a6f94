// Package dist is the sharded sweep service: it scales the campaign and
// conformance engines across worker processes while preserving their
// core guarantee — byte-identical results regardless of how the work was
// split, who computed it, or how many times a shard was retried.
//
// The moving parts (docs/distributed.md has the full protocol):
//
//   - Server: the coordinator behind cmd/rtsweepd. It accepts jobs
//     (a kind plus a JSON payload), expands them into ordered units via
//     a Runner, satisfies what it can from the content-addressed result
//     Cache and a resumable JSONL checkpoint, partitions the rest into
//     shards, and hands shards out under expiring leases with fencing
//     tokens. Expired leases are re-issued to the next worker that
//     asks — work stealing without any worker-to-worker coordination.
//   - Worker: a pull-mode compute loop (also cmd/rtsweepd, -worker):
//     lease a shard, evaluate its units on the in-process pool, stream
//     the results back as JSONL, repeat.
//   - Client / RemoteShards: the submit-poll-fetch client side.
//     RemoteShards implements campaign.Executor, so campaign.Run —
//     and therefore cmd/rtsweep — can target a service with one flag
//     while keeping local checkpointing, resume and output formats.
//
// Execution is at-least-once (a slow worker's lease may expire and its
// shard be recomputed elsewhere), ingest is exactly-once (the first
// accepted result for a unit wins and duplicates are dropped), and
// because every unit is deterministic — trial seeds derive from the
// spec and unit key alone — the at-least-once retries are harmless: any
// two computations of a unit produce the same bytes.
package dist

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
)

// EngineVersion identifies the semantics of the computation engine —
// the simulator, the blocking analysis and the workload generators —
// for cache addressing. It is part of every unit's content address, so
// bumping it after a semantics-changing engine commit invalidates every
// stale cache entry instead of serving it.
//
// History: "1" pre-registry engine; "2" protocol registry with the
// spin-lock protocols (msrp, fmlp) and registry-canonicalized campaign
// protocol names; "3" one per-semaphore blocking composition for mpcp,
// dpcp and hybrid, which raises hybrid bounds on sporadic and jittered
// task sets to the jitter-aware arrival bound. Building msrp and fmlp
// from internal/core changed no output and kept "3".
const EngineVersion = "3"

// Job kinds understood by the default runner registry.
const (
	KindSweep       = "sweep"
	KindConformance = "conformance"
)

// SubmitRequest submits a job: a kind resolved through the server's
// runner registry plus the kind-specific payload (SweepPayload or
// ConformancePayload).
type SubmitRequest struct {
	Kind    string          `json:"kind"`
	Payload json.RawMessage `json:"payload"`
}

// SubmitResponse acknowledges a job. Submission is idempotent: the job
// ID is the content address of (kind, payload), so resubmitting the
// same job — including after a coordinator restart — attaches to the
// existing state instead of recomputing.
type SubmitResponse struct {
	JobID string `json:"job_id"`
	// Units is the total unit count of the job.
	Units int `json:"units"`
	// Cached counts units satisfied from the result cache at submit.
	Cached int `json:"cached"`
	// Resumed counts units restored from the job's checkpoint file.
	Resumed int `json:"resumed"`
}

// LeaseRequest asks for a shard of work from any incomplete job.
type LeaseRequest struct {
	// Worker names the requester (diagnostics only; the fencing token,
	// not the name, is what authorizes a result submission).
	Worker string `json:"worker"`
}

// LeaseResponse grants a shard lease, or reports that there is nothing
// to hand out. Exactly one of Done, Wait, or a grant (Count > 0) holds.
type LeaseResponse struct {
	// Done: every known job is complete.
	Done bool `json:"done,omitempty"`
	// Wait: incomplete jobs exist but every remaining shard is leased
	// and unexpired; back off and ask again.
	Wait bool `json:"wait,omitempty"`

	JobID string `json:"job_id,omitempty"`
	Shard int    `json:"shard,omitempty"`
	// Units are the unit indices of the shard, in job order.
	Units []int `json:"units,omitempty"`
	// Token is the fencing token for this lease. Result submissions
	// must present it; a submission with a stale token (the lease
	// expired and was re-issued) is rejected.
	Token int64 `json:"token"`
	// TTLMillis is how long the lease is valid. A worker that cannot
	// finish in time loses nothing but the duplicated compute.
	TTLMillis int64 `json:"ttl_ms"`
	// Reclaimed marks a lease re-issued after a previous holder's
	// expiry (the work-stealing path).
	Reclaimed bool `json:"reclaimed,omitempty"`

	// Kind and Payload let stateless workers open the job's task
	// without a second round trip.
	Kind    string          `json:"kind,omitempty"`
	Payload json.RawMessage `json:"payload,omitempty"`

	// Span is the job's span context in X-Rt-Trace header form
	// ("<trace>/<span>"), so worker shard spans join the job's trace.
	// Empty when coordinator tracing is off.
	Span string `json:"span,omitempty"`
}

// UnitResult is one computed unit, streamed to and from the coordinator
// as one JSONL line.
type UnitResult struct {
	Unit int    `json:"unit"`
	Key  string `json:"key"`
	// Failures is the unit's degraded-trial count (runner-reported), so
	// the coordinator can account failures without decoding Result.
	Failures int `json:"failures,omitempty"`
	// Result is the kind-specific result document (campaign.PointResult
	// for sweeps, conformance.TrialResult for conformance).
	Result json.RawMessage `json:"result"`
}

// IngestResponse acknowledges a shard result submission.
type IngestResponse struct {
	// Accepted counts units ingested from this submission; duplicates
	// of already-ingested units are dropped (exactly-once ingest).
	Accepted int `json:"accepted"`
	// ShardDone reports whether the shard is now fully ingested.
	ShardDone bool `json:"shard_done"`
}

// JobStatus is the coordinator's view of one job.
type JobStatus struct {
	JobID        string `json:"job_id"`
	Kind         string `json:"kind"`
	Units        int    `json:"units"`
	DoneUnits    int    `json:"done_units"`
	CachedUnits  int    `json:"cached_units"`
	ResumedUnits int    `json:"resumed_units"`
	Shards       int    `json:"shards"`
	DoneShards   int    `json:"done_shards"`
	LeasedShards int    `json:"leased_shards"`
	// Reclaimed counts expired leases that were re-issued.
	Reclaimed int `json:"reclaimed"`
	// Failures is the sum of ingested units' failure counts.
	Failures int  `json:"failures"`
	Complete bool `json:"complete"`
}

// errorResponse is the JSON body of every non-2xx API response.
type errorResponse struct {
	Error string `json:"error"`
}

// contentID derives the content address of (kind, payload): the
// sha256 of the kind and the whitespace-normalized payload. Used for
// job IDs, so identical submissions converge on one job.
func contentID(kind string, payload json.RawMessage) string {
	h := sha256.New()
	h.Write([]byte(kind))
	h.Write([]byte{'\n'})
	h.Write(compactJSON(payload))
	return "j" + hex.EncodeToString(h.Sum(nil))[:16]
}

// compactJSON normalizes JSON whitespace; invalid JSON passes through
// unchanged (it will fail decoding later with a better error).
func compactJSON(raw json.RawMessage) []byte {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return raw
	}
	return buf.Bytes()
}
