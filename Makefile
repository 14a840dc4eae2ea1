# Build / verify / benchmark entry points.
#
#   make build  — compile every package
#   make vet    — static analysis
#   make test   — full test suite (tier-1 gate: build + test green)
#   make race   — full test suite under the race detector (the parallel
#                 exec paths must stay race-clean)
#   make check  — build + vet + test
#   make bench  — relation-kernel micro-benchmarks → BENCH_relation.json
#                 (test2json stream of `go test -bench -benchmem`,
#                 the trajectory artifact later perf PRs diff against)
#   make bench-parallel — exec-layer scaling curves → BENCH_parallel.json
#                 (faqbench -parallel: wall clock + simulated makespan,
#                 atomic and intra-node-shaped, per worker count;
#                 answers verified bit-identical)
#   make bench-incremental — point-update latency of materialized views
#                 vs full re-solve → BENCH_incremental.json (faqbench
#                 -incremental: path7/star6/tree6 at n = 1e4 and 1e5;
#                 every measured answer verified bit-identical to a
#                 from-scratch solve before the artifact is written)
#   make bench-all — every benchmark in the repo (paper tables + kernel)
#   make test-workers — re-run the parallel≡sequential equivalence suites
#                 with the default pool pinned at 1, 2, and 8 workers
#                 (FAQ_WORKERS, read by internal/exec at init), so every
#                 public dispatch path is exercised at each width
#   make bench-service — query-service throughput → BENCH_service.json
#                 (faqload mixed-shape workload: cold-plan vs warm-cache
#                 throughput and p50/p99 latency per worker count; every
#                 answer verified against per-request planning)
#   make smoke-service — tiny-n end-to-end smoke of faqd + faqload over
#                 HTTP (wired into CI)
#   make smoke-metrics — boot faqd, drive 20 requests, and gate the
#                 /metrics exposition: faqload's -url mode strict-parses
#                 the scrape at each phase boundary and fails unless the
#                 key series moved (part of `make check` and CI)
#   make smoke-cluster — boot three faqw shard workers plus a faqd
#                 coordinator wired to them (-workers host:port list),
#                 drive the faqload workload through HTTP (every answer
#                 verified bit-identical to the local reference), then
#                 run faqbench -cluster, which gates measured
#                 bytes-on-wire against the closed-form
#                 cluster.PayloadBound (part of `make check` and CI)
#   make bench-cluster — distributed-engine bytes-on-wire vs closed-form
#                 bounds at full size → BENCH_cluster.json
#   make examples — build and run every examples/ program (all are
#                 clients of the public faqs façade; wired into CI)
#   make lint   — a gofmt gate (every .go file formatted, the perfbench
#                 module included), then faqlint, the repo's
#                 static-analysis suite (internal/lint): seven analyzers
#                 compiling the standing contracts — facade, nopanic,
#                 mapiter, ctxflow, hotpath, failpoint, metricreg — into
#                 build failures; zero unsuppressed findings required
#                 (part of `make check`)
#   make bench-selfcheck — vet and self-test the perfbench module (its
#                 own go.mod, so root `go build ./...` never compiles it
#                 against internal/faq, internal/cluster, internal/plan):
#                 every workload × trace at tiny sizes (~12 s; part of
#                 `make check`)
#   make vet-imports — alias for the facade analyzer alone (the former
#                 shell-grep target; the faqbench/faqload/ghdtool
#                 allowlist now lives in internal/lint/facade.go)
#   make chaos  — failpoint sweep under the race detector at 1/2/8
#                 workers: every registered fault-injection site fired
#                 in every mode must yield a typed error or a
#                 bit-identical answer, never a hang or panic escape
#                 (part of `make check`). Chaos tests follow the
#                 TestChaos* naming convention — enforced by the
#                 failpoint analyzer, so an arming test that drops the
#                 prefix (and would silently leave the sweep) is a lint
#                 failure, not a quiet coverage loss.

GO        ?= go
BENCHTIME ?= 0.5s
FUZZTIME  ?= 30s
SMOKEADDR ?= 127.0.0.1:18080
METRICSADDR ?= 127.0.0.1:18081
CLUSTERADDR ?= 127.0.0.1:18082
WORKERADDR1 ?= 127.0.0.1:18091
WORKERADDR2 ?= 127.0.0.1:18092
WORKERADDR3 ?= 127.0.0.1:18093

# The packages holding the parallel≡sequential equivalence suites.
WORKER_PKGS = ./internal/relation/ ./internal/protocol/ ./internal/faq/ ./internal/exec/ ./internal/flow/ ./internal/plan/ ./internal/service/ ./internal/delta/ ./internal/delta/churn/ ./faqs/

.PHONY: build test vet lint vet-imports race check chaos bench-selfcheck bench bench-parallel bench-incremental bench-cluster bench-all fuzz test-workers bench-service smoke-service smoke-metrics smoke-cluster examples

# The packages holding chaos (failpoint-sweep) TestChaos* suites: the
# serving path, the incremental-maintenance engine, the kernels, the
# exec pool, the netsim ledger, the rpc transport, the scatter/gather
# coordinator, the public façade, and the daemon's
# HTTP boundary. This list must mirror
# the failpoint analyzer's ChaosPackages (internal/lint/failpoint.go):
# the analyzer flags arming tests in packages outside it, so the two
# cannot drift silently. The fault registry's own unit suite runs in
# tier-1/`make race` — its arming calls are exercises of the registry,
# not chaos sweeps (analyzer Exempt entry).
CHAOS_PKGS = ./internal/service/ ./internal/delta/ ./internal/relation/ ./internal/protocol/ ./internal/exec/ ./internal/rpc/ ./internal/cluster/ ./faqs/ ./cmd/faqd/

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

lint:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l flags:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) run ./cmd/faqlint ./...

# Alias for the retired shell-grep target: same contract, now enforced
# by the facade analyzer (allowlist in internal/lint/facade.go).
vet-imports:
	$(GO) run ./cmd/faqlint -only facade ./...

race:
	$(GO) test -race ./...

check: build vet lint test bench-selfcheck chaos smoke-metrics smoke-cluster

bench-selfcheck:
	cd perfbench && $(GO) vet . && $(GO) test .

chaos:
	FAQ_WORKERS=1 $(GO) test -race -count=1 -run '^TestChaos' $(CHAOS_PKGS)
	FAQ_WORKERS=2 $(GO) test -race -count=1 -run '^TestChaos' $(CHAOS_PKGS)
	FAQ_WORKERS=8 $(GO) test -race -count=1 -run '^TestChaos' $(CHAOS_PKGS)

examples:
	$(GO) build ./examples/...
	@set -e; for d in examples/*/; do \
		echo "== go run ./$$d"; \
		$(GO) run ./$$d; \
	done

bench:
	$(GO) test -run=NONE -bench=. -benchmem -benchtime=$(BENCHTIME) -json \
		./internal/relation/ > BENCH_relation.json
	@echo "wrote BENCH_relation.json"

bench-parallel:
	$(GO) run ./cmd/faqbench -parallel

bench-incremental:
	$(GO) run ./cmd/faqbench -incremental

bench-cluster:
	$(GO) run ./cmd/faqbench -cluster

bench-all:
	$(GO) test -run=NONE -bench=. -benchmem -benchtime=$(BENCHTIME) ./...

test-workers:
	FAQ_WORKERS=1 $(GO) test -count=1 $(WORKER_PKGS)
	FAQ_WORKERS=2 $(GO) test -count=1 $(WORKER_PKGS)
	FAQ_WORKERS=8 $(GO) test -count=1 $(WORKER_PKGS)

fuzz:
	$(GO) test ./internal/relation/ -run=NONE -fuzz=FuzzBuilderDuplicateMerge -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/relation/ -run=NONE -fuzz=FuzzJoinMergeParallel -fuzztime=$(FUZZTIME)
	$(GO) test ./faqs/ -run=NONE -fuzz=FuzzQueryBuilder -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/delta/ -run=NONE -fuzz=FuzzDeltaApply -fuzztime=$(FUZZTIME)
	$(GO) test ./cmd/faqd/ -run=NONE -fuzz=FuzzAnswerJSON -fuzztime=$(FUZZTIME)

bench-service:
	$(GO) run ./cmd/faqload -out BENCH_service.json

smoke-service:
	$(GO) build -o /tmp/faqd-smoke ./cmd/faqd
	$(GO) build -o /tmp/faqload-smoke ./cmd/faqload
	@/tmp/faqd-smoke -addr $(SMOKEADDR) -cache 64 & \
	FAQD_PID=$$!; \
	for i in $$(seq 1 50); do \
		curl -fsS http://$(SMOKEADDR)/healthz >/dev/null 2>&1 && break; \
		sleep 0.2; \
	done; \
	/tmp/faqload-smoke -url http://$(SMOKEADDR) -requests 6 -n 128; \
	STATUS=$$?; \
	kill $$FAQD_PID 2>/dev/null; \
	exit $$STATUS

# smoke-metrics gates the observability surface: faqload's -url mode
# strict-parses /metrics at each phase boundary, derives server-side
# latency quantiles from the histogram deltas, and fails if the
# exposition is malformed or a key series (requests, exec tasks, cache
# misses, runtime gauges, HTTP counters) never moved.
smoke-metrics:
	$(GO) build -o /tmp/faqd-smoke ./cmd/faqd
	$(GO) build -o /tmp/faqload-smoke ./cmd/faqload
	@/tmp/faqd-smoke -addr $(METRICSADDR) -cache 64 & \
	FAQD_PID=$$!; \
	for i in $$(seq 1 50); do \
		curl -fsS http://$(METRICSADDR)/healthz >/dev/null 2>&1 && break; \
		sleep 0.2; \
	done; \
	/tmp/faqload-smoke -url http://$(METRICSADDR) -requests 20 -n 128 -out /tmp/faqd-smoke-metrics.json; \
	STATUS=$$?; \
	kill $$FAQD_PID 2>/dev/null; \
	exit $$STATUS

# smoke-cluster boots the real distributed stack on loopback — three
# faqw shard workers plus a faqd coordinator scattering to them — and
# drives the faqload workload through it: every served answer is
# verified bit-identical to faqload's local reference, so a sharding or
# merge bug in the cluster path is a smoke failure, not a silent wrong
# answer. It then runs faqbench -cluster at a small n, which re-gates
# measured bytes-on-wire against the closed-form cluster.PayloadBound
# on fleets of 1/2/4/8 workers.
smoke-cluster:
	$(GO) build -o /tmp/faqd-smoke ./cmd/faqd
	$(GO) build -o /tmp/faqw-smoke ./cmd/faqw
	$(GO) build -o /tmp/faqload-smoke ./cmd/faqload
	$(GO) build -o /tmp/faqbench-smoke ./cmd/faqbench
	@/tmp/faqw-smoke -addr $(WORKERADDR1) & \
	W1=$$!; \
	/tmp/faqw-smoke -addr $(WORKERADDR2) & \
	W2=$$!; \
	/tmp/faqw-smoke -addr $(WORKERADDR3) & \
	W3=$$!; \
	/tmp/faqd-smoke -addr $(CLUSTERADDR) -cache 64 -workers $(WORKERADDR1),$(WORKERADDR2),$(WORKERADDR3) & \
	FAQD_PID=$$!; \
	for i in $$(seq 1 50); do \
		curl -fsS http://$(CLUSTERADDR)/healthz >/dev/null 2>&1 && break; \
		sleep 0.2; \
	done; \
	/tmp/faqload-smoke -url http://$(CLUSTERADDR) -requests 8 -n 128; \
	STATUS=$$?; \
	if [ $$STATUS -eq 0 ]; then \
		/tmp/faqbench-smoke -cluster /tmp/BENCH_cluster_smoke.json 512; \
		STATUS=$$?; \
	fi; \
	kill $$FAQD_PID $$W1 $$W2 $$W3 2>/dev/null; \
	exit $$STATUS
