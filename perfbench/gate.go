package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"mpcp/internal/campaign"
)

// pinnedDigests are the sha256 digests of each workload's first
// repetition's result rows, in spec order, at defaultSeed and full size. They were taken from the
// code this benchmark was defined on; a change that alters any campaign
// result must re-pin them (every run prints its digest on standard error).
var pinnedDigests = map[string]string{
	"sweep-analysis": "1b07521a91f8646c1c41ad73c9d7c93fc0342c7c6178ff23dd472cb2e5249d9b",
	"sweep-sim":      "759d3621e989809376ba626890a943bc41851be51fe50ee658e71a39b69b1012",
}

// rowCheck summarizes one repetition's result rows for the gate.
type rowCheck struct {
	Digest    string   `json:"digest"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errs      []string `json:"errs,omitempty"`
}

// checkRows digests a repetition's rows and counts failed points: a point
// with a degraded trial or a point-level error, a point with a trial the
// response-time test admitted that then missed a deadline in simulation,
// and a point a job failed to deliver (missing).
func checkRows(rows [][]byte, missing int) rowCheck {
	c := rowCheck{Digest: digest(rows), Attempted: len(rows) + missing, Failed: missing}
	if missing > 0 {
		c.Errs = append(c.Errs, fmt.Sprintf("%d points missing from the results", missing))
	}
	for _, row := range rows {
		if err := rowFailure(row); err != nil {
			c.Failed++
			if len(c.Errs) < 8 {
				c.Errs = append(c.Errs, err.Error())
			}
		}
	}
	return c
}

func rowFailure(row []byte) error {
	var r campaign.PointResult
	if err := json.Unmarshal(row, &r); err != nil {
		return fmt.Errorf("undecodable result row: %v", err)
	}
	if n := r.Failures(); n > 0 {
		return fmt.Errorf("point %s: %d failures %s", r.Key, n, r.Err)
	}
	if r.SimMissedAdmitted > 0 {
		return fmt.Errorf("point %s: %d admitted trials missed a deadline", r.Key, r.SimMissedAdmitted)
	}
	return nil
}

func digest(rows [][]byte) string {
	h := sha256.New()
	for _, r := range rows {
		h.Write(r)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// gate is the correctness check every run applies: the first
// repetition's rows must match the pinned digest (default seed, full size
// only), a repetition of the first one's inputs must reproduce its rows
// byte for byte, and no point may fail.
type gate struct {
	workload string
	pinned   string // empty: no pinned digest applies

	first     string // the first repetition's digest
	attempted int
	failed    int
	errs      []string
}

func newGate(workload string, cfg runConfig) *gate {
	g := &gate{workload: workload}
	if cfg.seed == defaultSeed && !cfg.tiny {
		g.pinned = pinnedDigests[workload]
	}
	return g
}

func (g *gate) fail(err error) {
	if len(g.errs) < 8 {
		g.errs = append(g.errs, err.Error())
	}
}

// observe folds in one repetition. same says it ran the first
// repetition's inputs.
func (g *gate) observe(c rowCheck, same bool) {
	g.attempted += c.Attempted
	g.failed += c.Failed
	for _, e := range c.Errs {
		g.fail(fmt.Errorf("%s", e))
	}
	if g.first == "" {
		g.first = c.Digest
		fmt.Fprintf(os.Stderr, "perfbench: %s: result digest %s\n", g.workload, c.Digest)
		if g.pinned != "" && c.Digest != g.pinned {
			g.fail(fmt.Errorf("result digest %s, pinned %s", c.Digest, g.pinned))
		}
		return
	}
	if same && c.Digest != g.first {
		g.fail(fmt.Errorf("a repetition's results differ from the first repetition's"))
	}
}

// result assembles the output line; the run is correct only if no gate
// failed.
func (g *gate) result(metrics map[string]metric) *result {
	if len(g.errs) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: GATE FAILED:\n  %s\n", g.workload, strings.Join(g.errs, "\n  "))
	}
	attempted := g.attempted
	if attempted < 1 {
		attempted = 1
	}
	return &result{
		Correct:   len(g.errs) == 0,
		Attempted: attempted,
		Failed:    g.failed,
		Metrics:   metrics,
	}
}
