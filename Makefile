GO ?= go

.PHONY: all build test vet race bench bench-all smoke-bench test-metrics check-planner cover loc check

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# Microbenchmark baselines: every optimised kernel head-to-head against its
# frozen seed copy (impl=before/impl=after, pool=off/pool=on) into
# BENCH_kernels.json, the same training step synchronous vs under the
# comm-compute overlap engine (mode=sync/mode=overlapped, plus a depth
# sweep) into BENCH_overlap.json, and the blocked attention engine vs the
# dense reference across document-length distributions (dist=*/impl=*)
# into BENCH_attention.json, and the serving workload one-request-at-a-time
# vs continuously batched (impl=before/impl=after over batch × prompt × TP)
# into BENCH_serving.json — one iteration each, since every iteration is a
# full multi-second workload — and the workload-balance planner vs the
# sequential baseline across document-length distributions
# (dist=*/impl=unbalanced|balanced, with per-rank idle, P2P-wait, step-time,
# and imbalance-ratio metrics behind bitwise placement guards) into
# BENCH_balance.json, and the flat single-ring collectives vs the two-level
# hierarchical transport (world × hostSize × op, impl=flat|hier, each hier
# cell behind a pre-timing bitwise flat-equivalence guard) into
# BENCH_comm.json, and the full-space auto-parallelism search (enumerated /
# pruned / feasible census plus wall time as extra metric columns) into
# BENCH_planner.json, and the context-parallel K/V-exchange strategies
# (dist=short|mixed|long × strat=allgather|ring|adaptive, each cell behind
# bitwise strategy-invisibility, ring-overlap, and Fig 13 price-ordering
# guards, with modeled exchange time, measured exposed/overlapped comm, and
# ring routing fraction as metric columns) into BENCH_cp.json. The temp
# files keep a go test failure from being masked by the pipe.
bench:
	$(GO) test -bench='^BenchmarkKernel' -benchmem -run='^$$' \
		./internal/tensor ./internal/attention . > BENCH_kernels.txt \
		&& $(GO) run ./cmd/benchjson -o BENCH_kernels.json < BENCH_kernels.txt \
		&& rm BENCH_kernels.txt
	$(GO) test -bench='^BenchmarkOverlap' -benchmem -run='^$$' \
		./internal/core > BENCH_overlap.txt \
		&& $(GO) run ./cmd/benchjson -o BENCH_overlap.json < BENCH_overlap.txt \
		&& rm BENCH_overlap.txt
	$(GO) test -bench='^BenchmarkAttentionMasked' -benchmem -run='^$$' \
		./internal/attention > BENCH_attention.txt \
		&& $(GO) run ./cmd/benchjson -o BENCH_attention.json < BENCH_attention.txt \
		&& rm BENCH_attention.txt
	$(GO) test -bench='^BenchmarkServe' -benchtime=1x -run='^$$' \
		./internal/serve > BENCH_serving.txt \
		&& $(GO) run ./cmd/benchjson -o BENCH_serving.json < BENCH_serving.txt \
		&& rm BENCH_serving.txt
	$(GO) test -bench='^BenchmarkBalance' -benchtime=3x -run='^$$' \
		. > BENCH_balance.txt \
		&& $(GO) run ./cmd/benchjson -o BENCH_balance.json < BENCH_balance.txt \
		&& rm BENCH_balance.txt
	$(GO) test -bench='^BenchmarkComm' -benchmem -benchtime=3x -run='^$$' \
		./internal/comm > BENCH_comm.txt \
		&& $(GO) run ./cmd/benchjson -o BENCH_comm.json < BENCH_comm.txt \
		&& rm BENCH_comm.txt
	$(GO) test -bench='^BenchmarkPlannerSearch' -benchtime=1x -run='^$$' \
		./internal/planner > BENCH_planner.txt \
		&& $(GO) run ./cmd/benchjson -o BENCH_planner.json < BENCH_planner.txt \
		&& rm BENCH_planner.txt
	$(GO) test -bench='^BenchmarkCP' -benchtime=3x -run='^$$' \
		. > BENCH_cp.txt \
		&& $(GO) run ./cmd/benchjson -o BENCH_cp.json < BENCH_cp.txt \
		&& rm BENCH_cp.txt

# The paper-reproduction benchmarks (one per table/figure) plus the kernel
# suite.
bench-all:
	$(GO) test -bench=. -benchmem -run='^$$' ./...

# One iteration of every kernel, overlap, masked-attention, serving, and
# balance benchmark: exercises the before/after, sync-vs-overlapped,
# blocked-vs-dense, serial-vs-batched, and balanced-vs-sequential bitwise
# correctness guards without waiting for stable timings. The serving sweep is
# restricted to its smallest case — the guards are identical across cases and
# the big ones take most of a minute each — and the balance sweep to the
# heavy-tail mix, where the skew-reduction guard is strict. The collective
# sweep replays its 256-rank cells: big enough to cover multi-host carrier
# escalation, small enough to finish in well under a second. The CP strategy
# sweep replays its mixed-distribution cells, where the adaptive-beats-both-
# pures guard is strict and mixed per-document routing is mandatory.
smoke-bench:
	$(GO) test -bench='^(BenchmarkKernel|BenchmarkOverlap|BenchmarkAttentionMasked)' -benchtime=1x -run='^$$' \
		./internal/tensor ./internal/attention ./internal/core .
	$(GO) test -bench='^BenchmarkServe/bs=16' -benchtime=1x -run='^$$' ./internal/serve
	$(GO) test -bench='^BenchmarkBalance/dist=heavytail' -benchtime=1x -run='^$$' .
	$(GO) test -bench='^BenchmarkComm/world=256' -benchtime=1x -run='^$$' ./internal/comm
	$(GO) test -bench='^BenchmarkCP/dist=mixed' -benchtime=1x -run='^$$' .

# The measured-vs-modeled gate: the xval conformance sweep (measured comm
# bytes, FLOPs, activation peaks, and schedules against the analytic models
# across 16 4D configurations) plus every examples/ program's smoke test.
test-metrics:
	$(GO) test ./internal/metrics/... ./examples/...

# The planner loop-closure guard: the search winner for a small world is
# replayed through a real functional cluster and its measured comm bytes,
# tier volumes, and FLOPs must equal the planner's closed-form prediction
# exactly; the memory-prune configuration is pinned against the live
# cluster's memsim view.
check-planner:
	$(GO) test -run 'TestSearchWinnerSpotCheckExact|TestMemConfigPinnedToLiveCluster' ./internal/planner

# Per-package coverage summary plus the total (the number quoted in
# README.md). cover.out is left behind for `go tool cover -html`.
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1
	@echo "per-package:"
	@$(GO) test -cover ./... 2>/dev/null | grep -v 'no test files' | awk '{print "  " $$2 "\t" $$5}'

# Non-test Go lines outside bench/ — the number ROADMAP aim 2 tracks — in
# total and per internal/* package. Plain wc -l: comments and blank lines
# count, so the figure moves only when code is written or deleted.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs wc -l \
		| awk '$$2 != "total" { n += $$1; split($$2, p, "/"); if (p[2] == "internal") pkg[p[2] "/" p[3]] += $$1 } \
		END { for (k in pkg) printf "%7d  %s\n", pkg[k], k | "sort -k2"; close("sort -k2"); printf "%7d  total non-test Go lines outside bench/\n", n }'

# The full verification gate: compile everything, vet, run the suite with
# the race detector (all collectives and the ft subsystem exercise real
# cross-goroutine communication), run the measured-vs-modeled gate, smoke
# the kernel benchmarks' correctness guards, and report the code size.
check: build vet race test-metrics smoke-bench check-planner loc
