GO ?= go

.PHONY: all build test test-short bench bench-ab perfbench-check repro repro-verify sweep sweep-smoke sweep-spinvssuspend sweepd-smoke obs-smoke metrics-demo check check-smoke explain-smoke fuzz vet rtvet vet-alloc fmt lint cover clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Regenerate every paper table/figure as benchmarks (deliverable d).
bench:
	$(GO) test -bench=. -benchmem ./...

# Same-machine A/B of the repository benchmark against revision REV:
# alternating pairs of python3 perfbench/run.py on REV (a git worktree
# under .bench_build/ab/) and on this tree. BENCH_AB_FLAGS passes e.g.
# "--seconds 15 --workloads sweep-sim --seed 2" (scripts/bench_ab.py -h).
bench-ab:
	@test -n "$(REV)" || { echo "usage: make bench-ab REV=<rev> [BENCH_AB_FLAGS=...]"; exit 2; }
	python3 scripts/bench_ab.py --rev $(REV) $(BENCH_AB_FLAGS)

# perfbench is its own Go module (replace mpcp => ../), so the root
# module's ./... never builds it: vet and test it on its own, so an API
# change it depends on fails here rather than when the benchmark runs.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Full acceptance-ratio campaign (MPCP vs DPCP vs hybrid), resumable.
sweep:
	$(GO) run ./cmd/rtsweep -seeds 50 -sim -out sweeps/acceptance.jsonl -resume

# Tiny 2-point campaign as a fast gate (CI runs the same spec).
sweep-smoke:
	$(GO) run ./cmd/rtsweep -spec cmd/rtsweep/testdata/smoke.json -quiet

# Spin vs suspend: suspension-based MPCP against the MSRP and FMLP+
# spin-lock protocols on one grid (docs/protocols.md; results table in
# EXPERIMENTS.md). Resumable like every campaign.
sweep-spinvssuspend:
	$(GO) run ./cmd/rtsweep -spec sweeps/spin-vs-suspend.json -out sweeps/spin-vs-suspend.jsonl -resume

# Distributed-sweep gate (CI runs this): a real rtsweepd coordinator
# plus two worker loops over loopback HTTP under the race detector,
# checking byte-identity against a single-process run and the ops
# endpoint (docs/distributed.md).
sweepd-smoke:
	$(GO) test -race -count=1 -run 'TestSweepdEndToEnd' ./cmd/rtsweepd
	$(GO) test -race -count=1 -run 'TestExecutorEquivalence|TestLeaseFaultInjection' ./internal/dist

# Observability gate (CI runs this): a loopback rtsweepd sweep with span
# streaming on every process, merged into a Chrome trace-event timeline
# and validated, plus the Prometheus exposition golden and the
# scrape-under-load race test (docs/observability.md).
obs-smoke:
	$(GO) test -race -count=1 -run 'TestObsSmoke' ./cmd/rtsweepd
	$(GO) test -race -count=1 -run 'TestScrapeWhileCollect' ./internal/obs
	$(GO) test -count=1 -run 'TestPromGolden' ./cmd/rtmetrics
	$(GO) test -count=1 -run 'TestSpanTreeDeterministic' ./internal/dist

# End-to-end metrics gate: run the smoke sweep and a sample simulation
# with metrics snapshots, then validate both against the documented
# schema with rtmetrics (docs/observability.md).
metrics-demo:
	$(GO) run ./cmd/rtsweep -spec cmd/rtsweep/testdata/smoke.json -quiet -metrics sweep-metrics.json
	$(GO) run ./cmd/rtsim -config testdata/avionics.json -metrics sim-metrics.json > /dev/null
	$(GO) run ./cmd/rtmetrics sweep-metrics.json sim-metrics.json

# Conformance campaign: differential + metamorphic oracles over every
# protocol, with shrinking to replayable repros (docs/conformance.md).
check:
	$(GO) run ./cmd/rtcheck -trials 200 -seed 1

# Small-budget conformance gate under the race detector (CI runs this).
# The second pass forces every trial onto a sporadic+jittered workload so
# the release-model path is exercised against the multiprocessor
# protocols on every CI run (docs/simulator.md, "Release models").
check-smoke:
	$(GO) run -race ./cmd/rtcheck -trials 20 -seed 1 -repro-dir /tmp/rtcheck-repros
	$(GO) run -race ./cmd/rtcheck -sporadic -protocols mpcp,dpcp,hybrid,inherit -trials 10 -seed 1 -repro-dir /tmp/rtcheck-repros

# Explain task 2's bound under every analyzable protocol; any error
# fails the target (CI runs this).
explain-smoke:
	kinds=$$($(GO) run ./cmd/rtsched -h 2>&1 | sed -n 's/.*analysis to run: \(.*\) (default.*/\1/p' | tr -d ','); \
	test -n "$$kinds" || { echo "explain-smoke: no analyzable protocols in rtsched -h"; exit 1; }; \
	for p in $$kinds; do \
		echo "rtsched -kind $$p -explain 2"; \
		$(GO) run ./cmd/rtsched -config testdata/avionics.json -kind $$p -explain 2 > /dev/null || exit 1; \
	done

# Print every reproduced artifact (E1-E19).
repro:
	$(GO) run ./cmd/rtexp

# Machine-check every artifact against its acceptance criteria.
repro-verify:
	$(GO) run ./cmd/rtexp -verify

fuzz:
	$(GO) test -fuzz FuzzParse -fuzztime 30s ./internal/config
	$(GO) test -fuzz FuzzValidateBody -fuzztime 30s ./internal/task
	$(GO) test -fuzz FuzzValidateSystem -fuzztime 30s ./internal/task
	$(GO) test -fuzz FuzzGenerate -fuzztime 30s ./internal/workload
	$(GO) test -fuzz FuzzSourceMatchesMathRand -fuzztime 30s ./internal/workload
	$(GO) test -fuzz FuzzReadStream -fuzztime 30s ./internal/trace
	$(GO) test -fuzz FuzzConformanceRepro -fuzztime 30s ./internal/conformance
	$(GO) test -fuzz FuzzConformanceWorkload -fuzztime 30s ./internal/conformance

vet:
	$(GO) vet ./...

# Domain analyzers: determinism, lockdiscipline, allocbudget,
# protocontract, lockorder, exhaustiveswitch, floatcompare, jsonstable
# (docs/static-analysis.md). Needs nothing beyond the Go toolchain —
# the checker lives in internal/lint.
rtvet:
	$(GO) run ./cmd/rtvet ./...

# Cross-check the //rtlint:hotpath allocation budgets against the
# compiler's own escape analysis (go build -gcflags=-m): any "escapes
# to heap" inside an annotated function fails, so allocbudget's AST
# view and the real escape decisions cannot drift apart
# (docs/static-analysis.md, "Hot-path budgets").
vet-alloc:
	$(GO) run ./cmd/rtvet -escapes ./...

# Lint gate, the same steps as CI's lint job: vet, the domain
# analyzers, the suppression audit (every //rtlint:allow carries a
# reason), the hot-path escape cross-check, a format check, plus
# staticcheck when the binary is on PATH (CI installs it; locally it is
# optional and never downloaded).
lint: vet rtvet vet-alloc
	$(GO) run ./cmd/rtvet -suppressions ./...
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi
	@if command -v staticcheck > /dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

fmt:
	gofmt -w .

cover:
	$(GO) test -cover ./...

clean:
	$(GO) clean ./...
