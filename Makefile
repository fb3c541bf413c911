# Tier-1 gate and developer shortcuts. `make ci` is the one command the
# build must keep green; CI (.github/workflows/ci.yml) invokes the same
# named steps job by job, so every pipeline stage reproduces locally:
#
#   make build vet test   - compile, vet, full test suite
#   make fmt              - fail on any file gofmt would rewrite
#   make race             - test suite under the race detector
#   make fuzz-smoke       - ~55s fresh-input fuzz of ten targets: instance
#                           parser, wire codec, graph freeze, RunQuiet,
#                           BuildBFS, collect, the driven det/rounded solves,
#                           the driven rand/trunc/khan solves, dyadic
#                           arithmetic, the solve-request decoder
#   make bench-gate       - bench smoke + HEAD's fresh tables against the
#                           committed snapshot
#   make smoke            - end-to-end CLI smoke (local ci only)
#   make serve-smoke      - dsfserve self-test: closed-loop trace over HTTP
#   make chaos-smoke      - robustness gate: dsfbench's R1 table (cancel
#                           storms, panic quarantine, deadlines) over HTTP
#   make perf-selfcheck   - perfbench self-check: every workload twice
#                           against a live dsfserve, exact repeats required

GO ?= go

.PHONY: ci build vet fmt test race fuzz-smoke bench snapshot bench-smoke bench-head bench-gate smoke serve-smoke chaos-smoke perf-selfcheck

ci: build vet fmt test race fuzz-smoke smoke serve-smoke chaos-smoke bench-gate perf-selfcheck

build:
	$(GO) build ./...

# vet also keeps the engine to one execution model: internal/congest runs
# every node as a Driver, and importing iter (the coroutine machinery of
# the deleted blocking path) from its code or its tests fails the step.
vet:
	$(GO) vet ./...
	@if $(GO) list -f '{{join .Imports " "}} {{join .TestImports " "}} {{join .XTestImports " "}}' ./internal/congest | tr ' ' '\n' | grep -qx iter; then \
		echo "vet: internal/congest imports iter; the engine runs drivers only"; exit 1; \
	fi

# The source directories are named explicitly: perfbench/run.sh leaves a
# Go build cache under .bench_build/ that gofmt must not walk.
fmt:
	test -z "$$(gofmt -l *.go cmd examples internal perfbench)"

# Explicit -timeout: the default 10m hides a wedged cancellation or
# shutdown path behind a long hang; a deadlock in these suites should
# fail fast with goroutine dumps instead.
test:
	$(GO) test -timeout 5m ./...

race:
	$(GO) test -race -timeout 8m ./...

# Short fuzz smoke: the instance parser and the wire item codec must
# survive fresh fuzz input on every CI run, not just the checked-in
# corpus and seeds, the quiescence loop, the BFS build, the collect
# pipelines and the det, rounded, rand, trunc and khan solves must match
# the plain-loop reference (WithFastPath(false)) on fresh networks,
# activity schedules, item sets and instances, the shift-based dyadic
# arithmetic must match math/big, panicking exactly when a result leaves
# its range, and the serve layer's solve-request decoder must never panic
# and only accept valid specs of known algorithms.
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzReadInstance -fuzztime 10s ./internal/workload
	$(GO) test -run xxx -fuzz FuzzCandWire -fuzztime 5s ./internal/detforest
	$(GO) test -run xxx -fuzz FuzzFreezeAddEdge -fuzztime 5s ./internal/graph
	$(GO) test -run xxx -fuzz FuzzRunQuiet -fuzztime 5s ./internal/dist
	$(GO) test -run xxx -fuzz FuzzBuildBFS -fuzztime 5s ./internal/dist
	$(GO) test -run xxx -fuzz FuzzCollect -fuzztime 5s ./internal/dist
	$(GO) test -run xxx -fuzz FuzzDetDriven -fuzztime 5s ./internal/detforest
	$(GO) test -run xxx -fuzz FuzzRandDriven -fuzztime 5s ./internal/randforest
	$(GO) test -run xxx -fuzz FuzzDyadic -fuzztime 5s ./internal/rational
	$(GO) test -run xxx -fuzz FuzzSolveRequest -fuzztime 5s ./internal/serve

# Benchmark suite: experiment tables at reduced scale plus the engine
# allocation profile (BenchmarkEngineFlood reports allocs/op).
bench:
	$(GO) test -run xxx -bench . -benchmem -benchtime 1x ./...

# Refresh the committed snapshot (full-scale tables, machine readable):
# required whenever a change moves a correctness cell on purpose, since
# bench-head fails on any cell HEAD no longer reproduces.
snapshot:
	$(GO) run ./cmd/dsfbench -json > BENCH_pr10.json

# Short-mode run of the scheduler experiments: asserts the fast paths
# (E2) stay bit-identical to their per-round reference
# (WithFastPath(false)).
bench-smoke:
	$(GO) run ./cmd/dsfbench -quick -table e2 -json -memprofile bench-e2-heap.pprof >/dev/null
	$(GO) run ./cmd/dsfbench -quick -table e5 -json -memprofile bench-e5-heap.pprof >/dev/null
	$(GO) run ./cmd/dsfbench -quick -table s1 -json >/dev/null
	$(GO) run ./cmd/dsfbench -quick -table d1 -json >/dev/null

# Gate HEAD against the committed snapshot: a fresh full dsfbench run
# (about 15 s) compared against BENCH_pr10.json, with one dsfbench build
# for both. Every correctness cell (rounds, messages, weights, ratios,
# feasibility) must match the committed snapshot exactly, so a change
# that moves a paper-table cell without re-recording the snapshot fails
# here (exit 1). The fresh run's timing and memory come from whatever
# machine runs the gate, so they are reported (the report's timing
# summary), never judged. The report is also written to a file so CI can
# attach it as an artifact on failure.
bench-head:
	@$(GO) build -o bench-head.bin ./cmd/dsfbench; \
	./bench-head.bin -json > bench-head.json; \
	status=$$?; \
	if [ $$status -eq 0 ]; then \
		./bench-head.bin -compare -report bench-head-report.txt BENCH_pr10.json bench-head.json > /dev/null 2>&1; \
		status=$$?; \
	fi; \
	rm -f bench-head.bin; \
	case $$status in \
	0) echo "bench-head: HEAD reproduces BENCH_pr10.json";; \
	*) echo "bench-head: HEAD drifts from BENCH_pr10.json (exit $$status); see bench-head-report.txt"; cat bench-head-report.txt 2>/dev/null;; \
	esac; \
	exit $$status

# The CI bench job: fresh scheduler-identity smoke, then HEAD's
# correctness against the committed snapshot.
bench-gate: bench-smoke bench-head

# Quick end-to-end smoke: the evaluation tables at reduced scale, one
# full dsfrun through the Spec pipeline, and an instance-file round trip.
smoke:
	$(GO) run ./cmd/dsfbench -quick -table t1 >/dev/null
	$(GO) run ./cmd/dsfrun -n 30 -k 2 -algo det >/dev/null
	$(GO) run ./cmd/dsfrun -gen planted -n 30 -k 2 -out /tmp/dsf-smoke.sfi >/dev/null
	$(GO) run ./cmd/dsfrun -in /tmp/dsf-smoke.sfi -algo rand >/dev/null
	$(GO) run ./cmd/dsfrun -in examples/instances/ring12.sfi -algo central >/dev/null
	@echo smoke OK

# Serve-mode self-test: full dsfserve on an ephemeral loopback port, a
# closed-loop trace over real HTTP, hard assertions on errors/rejections
# and p99 latency (generous bound: CI runners are slow and shared).
serve-smoke:
	$(GO) run ./cmd/dsfserve -smoke -smokereqs 64 -smokep99 5000

# Robustness gate: dsfbench's R1 table replays seeded chaos schedules
# (internal/chaos) against live servers over loopback HTTP — the
# cancellation wasted-work A/B, panic isolation + quarantine, a cancel
# storm whose survivors must match standalone Solve, and deadline
# eviction. dsfbench exits 1 when the table fails its assertion.
chaos-smoke:
	$(GO) run ./cmd/dsfbench -quick -table r1 -json >/dev/null

# Benchmark self-check: builds dsfserve and perfbench from this checkout
# (artifacts under .bench_build/), runs every workload twice, and fails
# unless the count metrics repeat exactly and no answer was wrong. It
# catches a serve change that breaks a statsz or wire field the benchmark
# reads.
perf-selfcheck:
	bash perfbench/run.sh --selfcheck --seed 7 --seconds 4
