# repligc — common tasks. Everything is stdlib-only and offline.

.PHONY: all build lint test race bench perfbench perfbench-smoke bench-baseline bench-smoke serve-smoke calibrate calibrate-smoke crash-matrix trace microbench experiments quick-experiments examples clean

all: build lint test

build:
	go build ./...

# go vet plus the repository's invariant linter (cmd/gclint): write-barrier
# discipline (syntactic and interprocedural), from-space forwarding hygiene,
# stale heap.Values across may-flip calls, pause-only collector state,
# simulated-clock-only timing, deterministic iteration, dispatch
# exhaustiveness, and the annotation hygiene of //gclint:allow itself.
# See DESIGN.md, "Machine-checked invariants". gclint runs over ./..., which
# includes internal/analysis, internal/trace and internal/faultinject — the
# linter lints itself.
lint:
	go vet ./...
	go run ./cmd/gclint ./...

test:
	go test ./...

race:
	go test -race ./...

# Regenerate the perf trajectory at full scale: per-workload
# baseline-vs-coalesced-vs-checkpointed log and pause metrics plus wall-clock
# barrier and hot-path ns/op. The committed BENCH_PR8.json is this target's
# output, gated against itself-as-baseline when present.
bench:
	go run ./cmd/rtgc-bench -out BENCH_PR8.json perf
	go run ./cmd/rtgc-bench validate BENCH_PR8.json

# The repository benchmark (perfbench/, declared in BENCHMARK.json): one
# 20-second untraced run per workload, each printing its JSON result line.
perfbench:
	for w in sort comp serve group4; do \
		bash perfbench/run.sh --workload $$w --seed 1 --seconds 20 --trace 0 || exit 1; \
	done

# CI's repository-benchmark smoke: perfbench's own tests, then a 1-second
# untraced run of every workload. Each JSON result line must report
# "correct":true and "failed":0, or the target fails.
perfbench-smoke:
	cd perfbench && go test ./...
	for w in sort comp serve group4; do \
		line=$$(bash perfbench/run.sh --workload $$w --seconds 1 --trace 0 | tail -n 1) || exit 1; \
		echo "$$w: $$line"; \
		case "$$line" in *'"correct":true'*'"failed":0,'*) ;; \
		*) echo "perfbench-smoke: $$w result is not correct with 0 failed" >&2; exit 1 ;; esac; \
	done

# Regenerate the committed quick-scale baseline (BENCH_SMOKE.json) that
# bench-smoke gates fresh reports against. Simulated numbers are
# deterministic across machines, so the gate compares exactly; rerun this
# target only when a deliberate collector or cost-model change moves them.
bench-baseline:
	go run ./cmd/rtgc-bench -quick -out BENCH_SMOKE.json perf
	go run ./cmd/rtgc-bench validate BENCH_SMOKE.json

# CI's bench smoke: a quick-scale report validated for schema shape and
# gated against the committed baseline (simulated p95 pause and elapsed time
# only — wall-clock sections are never gated), plus the checkpoint-recovery
# smoke.
bench-smoke:
	go run ./cmd/rtgc-bench -quick -out /tmp/bench_smoke.json -baseline BENCH_SMOKE.json perf
	go run ./cmd/rtgc-bench validate /tmp/bench_smoke.json
	go run ./cmd/rtgc-bench recover

# CI's serving smoke: serve the committed spec (recording the materialised
# trace), validate the report, replay the recorded trace, and require the
# replayed report to be byte-identical — record/replay is exact or the build
# fails.
serve-smoke:
	go run ./cmd/rtgc-bench -out /tmp/serve_smoke.json -record /tmp/serve_smoke.trace serve examples/serve/mixed.json
	go run ./cmd/rtgc-bench servecheck /tmp/serve_smoke.json
	go run ./cmd/rtgc-bench -out /tmp/serve_replay.json servereplay /tmp/serve_smoke.trace
	cmp /tmp/serve_smoke.json /tmp/serve_replay.json

# Fit the simulated cost model to this machine's wall clock: run the paper
# workloads and the single-primitive probes uninstrumented, extract work
# counts from the collector's counters, least-squares the cost constants,
# and write the repligc-calib/1 artifact.
calibrate:
	go run ./cmd/rtgc-bench -out CALIB.json calibrate
	go run ./cmd/rtgc-bench calibcheck CALIB.json

# CI's calibration smoke: reduced iterations, artifact validated end to end.
calibrate-smoke:
	go run ./cmd/rtgc-bench -quick -out /tmp/calib_smoke.json calibrate
	go run ./cmd/rtgc-bench calibcheck /tmp/calib_smoke.json

# The deterministic crash-point matrix: seeded workloads × crash plans
# (snapshot/WAL × truncate/torn-word/duplicate-record, newest-epoch and
# all-epoch damage). Every cell must end in a fingerprint-verified recovery
# or a typed corruption rejection; the report is the CI artifact.
crash-matrix:
	go run ./cmd/rtgc-bench -out crash_matrix.json crashmatrix

# Emit a Perfetto-loadable Chrome trace per paper workload (full scale) and
# shape-check each artifact with the same validator CI uses.
trace:
	go run ./cmd/rtgc-bench -out /tmp/repligc_trace.json trace
	go run ./cmd/rtgc-bench tracecheck /tmp/repligc_trace-primes.json
	go run ./cmd/rtgc-bench tracecheck /tmp/repligc_trace-sort.json
	go run ./cmd/rtgc-bench tracecheck /tmp/repligc_trace-comp.json

# One testing.B benchmark per paper table/figure, at the quick scale.
microbench:
	go test -bench=. -benchmem -run '^$$' .

# Regenerate every table and figure of the paper at full scale.
experiments:
	go run ./cmd/rtgc-bench all

quick-experiments:
	go run ./cmd/rtgc-bench -quick all

examples:
	go run ./examples/quickstart
	go run ./examples/interactive
	go run ./examples/primes
	go run ./examples/futures
	go run ./examples/replay
	go run ./examples/lowlatency

# The two output files the reproduction ships with.
outputs:
	go test ./... 2>&1 | tee test_output.txt
	go test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt
