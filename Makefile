GO ?= go

.PHONY: all build test vet race purego v3 fuzz-kernels exhaustive-exp test-metrics check-planner bench-build bench-e2e bench-pairs profile cover loc dead check

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# go vet plus the formatting gate: fails when gofmt would rewrite any file.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

race:
	$(GO) test -race ./...

# The pure-Go build of the vector kernels (internal/tensor axpy4, the GEMM
# register tile, the vector exp, the transpose and the softmax sweeps' lanes;
# internal/optim's AdamW kernel; the row chains are Go in both builds):
# the packages whose bitwise contracts sit on them must pass without the
# assembly, which is also what every non-amd64 host runs — optim and fsdp
# on AdamW's scalar loop.
purego:
	$(GO) test -tags purego ./internal/tensor ./internal/attention ./internal/model ./internal/tp ./internal/vision ./internal/serve ./internal/core ./internal/optim ./internal/fsdp

# Ten seconds of coverage-guided fuzzing per assembly kernel, each against
# its scalar contract: FuzzMatMulTile (the GEMM paths and the register tile,
# canaries around every dst row), FuzzAccumBlockSkip (the masked tiles at
# widths 1–48 against the zero-skipping scalar loop, b ending at a guard
# page), FuzzZeroScan (the vector zero scan against `v == 0`), FuzzAxpy4,
# FuzzExpShift (the vector exp under ExpShift and Sigmoid, its masked last
# block at a guard page), FuzzTranspose (TransposeBlock against the seed
# transpose, canaries around and between the destination rows, and the GEMM
# driver's split transposes against the seed products) and
# FuzzAdamW (internal/optim: AdamW.Step, whose kernel adamw_amd64.s lives
# there, against the seed loop, canaries past every slice),
# then the softmax sweeps' kernels against their scalar loops at lengths
# 0–80, with canaries and at a guard page: FuzzScaleMax (ScaleMax and the
# read-only max, NaN/±Inf/±0 ties), FuzzScaleRow, FuzzSoftmaxGradRow (dot
# ±Inf and NaN), FuzzSumRows8 and FuzzDotRows8 (the eight-row chains), and
# last the blocked attention engine that calls them: FuzzGridAttention (random
# document layouts, tilings, sq/sk/kOff and head dims 1–48, the grid entries
# and the streamed forward on NaN-poisoned planes against the dense oracles).
# The committed corpora under internal/{tensor,optim,attention}/testdata/fuzz
# also run as plain tests in `make test`.
# The kernel-bound packages built for x86-64-v3 (AVX2, FMA): the language
# lets the compiler fuse x*y+z into one FMA, which would split a Go chain or
# scalar tail from the never-FMA assembly beside it. Every product feeding a
# chain is written float32(x*y), which may not be fused; this gate holds the
# bitwise tests to it at the level that has FMA.
v3:
	GOAMD64=v3 $(GO) test ./internal/tensor ./internal/attention ./internal/model ./internal/optim

fuzz-kernels:
	$(GO) test -run '^$$' -fuzz '^FuzzMatMulTile$$' -fuzztime 10s ./internal/tensor
	$(GO) test -run '^$$' -fuzz '^FuzzAccumBlockSkip$$' -fuzztime 10s ./internal/tensor
	$(GO) test -run '^$$' -fuzz '^FuzzZeroScan$$' -fuzztime 10s ./internal/tensor
	$(GO) test -run '^$$' -fuzz '^FuzzAxpy4$$' -fuzztime 10s ./internal/tensor
	$(GO) test -run '^$$' -fuzz '^FuzzExpShift$$' -fuzztime 10s ./internal/tensor
	$(GO) test -run '^$$' -fuzz '^FuzzTranspose$$' -fuzztime 10s ./internal/tensor
	$(GO) test -run '^$$' -fuzz '^FuzzAdamW$$' -fuzztime 10s ./internal/optim
	$(GO) test -run '^$$' -fuzz '^FuzzScaleMax$$' -fuzztime 10s ./internal/tensor
	$(GO) test -run '^$$' -fuzz '^FuzzScaleRow$$' -fuzztime 10s ./internal/tensor
	$(GO) test -run '^$$' -fuzz '^FuzzSoftmaxGradRow$$' -fuzztime 10s ./internal/tensor
	$(GO) test -run '^$$' -fuzz '^FuzzSumRows8$$' -fuzztime 10s ./internal/tensor
	$(GO) test -run '^$$' -fuzz '^FuzzDotRows8$$' -fuzztime 10s ./internal/tensor
	$(GO) test -run '^$$' -fuzz '^FuzzGridAttention$$' -fuzztime 10s ./internal/attention

# The vector exp and the AdamW kernel's square root on all 2^32 float32
# inputs (not tier-1, about four CPU-minutes plus one): ExpShift and Sigmoid
# Float32bits-equal to their math.Exp contracts, every float64 lane before
# narrowing bit-equal to math.Exp (internal/tensor), and VSQRTPS bit-equal
# to the float64 square root narrowed (internal/optim).
exhaustive-exp:
	$(GO) test -tags exhaustive -run '^TestExpExhaustive$$' -timeout 30m -v ./internal/tensor
	$(GO) test -tags exhaustive -run '^TestSqrtExhaustive$$' -timeout 30m -v ./internal/optim

# The measured-vs-modeled gate: the xval conformance sweep (measured comm
# bytes, FLOPs, activation peaks, and schedules against the analytic models
# across 16 4D configurations) plus every examples/ program's smoke test.
test-metrics:
	$(GO) test ./internal/metrics/... ./examples/...

# The planner loop-closure guard: the search winner for a small world is
# replayed through a real functional cluster and its measured comm bytes,
# tier volumes, and FLOPs must equal the planner's closed-form prediction
# exactly; the memory-prune configuration is pinned against the live
# cluster's memsim view; and a golden digest of every field of every plan
# pins the ranked output of the bench's 70B search and the Table 2 8K search
# byte for byte.
check-planner:
	$(GO) test -run 'TestSearchWinnerSpotCheckExact|TestMemConfigPinnedToLiveCluster|TestSearchGoldenDigest' ./internal/planner

# bench/ is its own module, so `go build ./... && go test ./...` at the root
# cannot see a deleted symbol the benchmark still calls; this type-checks it
# (tests included) against the tree. Offline like bench/run.sh, with go's
# build cache kept inside the checkout.
bench-build:
	cd bench && GOCACHE=$(CURDIR)/.bench_build/gocache GOTOOLCHAIN=local GOPROXY=off $(GO) vet ./...

# The measured ledger (not tier-1, about 9 minutes): run the bench/ suite —
# six workloads, three untraced rounds plus one traced — and check its
# end-to-end metrics and exact counts against the committed BENCH_e2e.json.
bench-e2e:
	bash bench/run.sh
	bash bench/run.sh -check BENCH_e2e.json bench/out/result.json

# The standing rule of a perf PR, typed once (not tier-1; N pairs take about
# N minutes): `make bench-pairs PARENT=<checkout of the parent commit>
# W=<workload> N=<pairs> [SEED=<first seed>]` alternates 18 s untraced runs of
# one workload between the two trees, order flipped each seed, and prints
# every run, then per end-to-end metric both medians, the relative change,
# the parent's IQR and in how many pairs head was better.
bench-pairs:
	bash scripts/bench-pairs.sh $(PARENT) $(W) $(N) $(SEED)

# Where one workload's CPU goes (not tier-1, about 25 s): `make profile
# W=<workload> [SEED=<seed>]` runs a 10 s untraced bench/ run of it under
# -cpuprofile and prints its CPU use, the share of samples under
# tensor.ParallelRows workers against rank or main goroutines, and the top
# 8 functions by flat samples — the before/after table of a perf change.
# The profile stays in .profile/ for `go tool pprof`.
profile:
	bash scripts/profile.sh $(W) $(SEED)

# Per-package coverage summary plus the total (the number quoted in
# README.md). cover.out is left behind for `go tool cover -html`.
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1
	@echo "per-package:"
	@$(GO) test -cover ./... 2>/dev/null | grep -v 'no test files' | awk '{print "  " $$2 "\t" $$5}'

# Non-test Go lines outside bench/ — the number ROADMAP aim 2 tracks — in
# total and per internal/* package, then the DESIGN.md + EXPERIMENTS.md line
# total, aim 2's doc budget. Plain wc -l: comments and blank lines count, so
# the figures move only when code or docs are written or deleted.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs wc -l \
		| awk '$$2 != "total" { n += $$1; split($$2, p, "/"); if (p[2] == "internal") pkg[p[2] "/" p[3]] += $$1 } \
		END { for (k in pkg) printf "%7d  %s\n", pkg[k], k | "sort -k2"; close("sort -k2"); printf "%7d  total non-test Go lines outside bench/\n", n }'
	@cat DESIGN.md EXPERIMENTS.md | wc -l | awk '{ printf "%7d  DESIGN.md + EXPERIMENTS.md lines\n", $$1 }'

# The census gate: exported functions and methods declared in non-test files
# under internal/ whose name appears in no non-test .go file of the repo
# (bench/ included) other than at its own declaration. By name, outside //
# comments and "…" string literals (a name in a panic message is not a
# caller); Error/Unwrap/WriteTo (standard interfaces) are skipped. It prints
# every such package.Name and fails on any not in DEAD_ALLOW, and on any
# DEAD_ALLOW entry that has gained a caller (drop it then). An unlisted entry
# is a deletion waiting to happen; DEAD_ALLOW is the oracle and conformance
# surface tests use, each entry's doc comment naming its tests.
# Because it matches by name, a dead method that shares its name with a live
# one is not listed (comm.Group.Gather hid behind serve.KVCache.Gather,
# comm.World.Stats behind tensor.Pool.Stats), nor are same-named methods that
# only call each other (fsdp.Sharded.GradShardMaxAbs and .MemoryBytes called
# fsdp.Shard's): a clean report is not proof.
DEAD_ALLOW := \
	tensor.SetPooling tensor.ResetFLOPCount tensor.Set tensor.MaxAbs tensor.BitwiseEqual \
	tensor.Dot tensor.MaxDiff tensor.SplitCols xval.PredictConfig \
	comm.Contains comm.Broadcast comm.Barrier \
	model.StepLoss model.CopyWeightsTo model.GradientVector model.ParamByName \
	tp.ReplicatedGradAllReduce xval.PredictCollective \
	engine.DecodeFLOPs engine.DecodeTPTraffic testutil.CaptureStdout

dead:
	@out=$$(find . -name '*.go' ! -name '*_test.go' | xargs awk -v allow="$(DEAD_ALLOW)" ' \
		{ code = $$0; gsub(/"([^"\\]|\\.)*"/, "", code); sub(/\/\/.*/, "", code); n = split(code, w, /[^A-Za-z0-9_]+/); \
		  for (i = 1; i <= n; i++) uses[w[i]]++ } \
		FILENAME ~ /^\.\/internal\// && match($$0, /^func (\([^)]*\) )?[A-Z][A-Za-z0-9_]*/) { \
		  name = substr($$0, RSTART, RLENGTH); sub(/^func (\([^)]*\) )?/, "", name); \
		  pkg = FILENAME; sub(/\/[^\/]*$$/, "", pkg); sub(/.*\//, "", pkg); \
		  decls[name]++; if (name !~ /^(Error|Unwrap|WriteTo)$$/) { d = FILENAME ":" FNR ": " pkg "." name; at[d] = name; key[d] = pkg "." name } } \
		END { n = split(allow, a, " "); for (i = 1; i <= n; i++) ok[a[i]] = 1; \
		  for (d in at) if (uses[at[d]] == decls[at[d]]) { seen[key[d]] = 1; print d (key[d] in ok ? "" : "  NOT ALLOWLISTED") } \
		  for (k in ok) if (!(k in seen)) print "DEAD_ALLOW: " k "  STALE (has a non-test caller, or is gone)" }' \
		| sort -t: -k1,1 -k2,2n); \
	echo "$$out"; \
	if echo "$$out" | grep -q 'NOT ALLOWLISTED\|STALE'; then \
		echo "make dead: delete the unlisted names, or keep them as test surface in DEAD_ALLOW with the reason in their doc comment"; exit 1; fi

# The full verification gate: compile everything, vet and gofmt, gate the
# exported surface on the dead-code census (cheap, so before the long runs),
# run the whole suite with the race detector (all collectives and the ft
# subsystem exercise real cross-goroutine communication; the
# measured-vs-modeled sweep and the kernels' bitwise-vs-oracle guards are
# ordinary tests inside it),
# rerun the kernel-bound packages on the pure-Go build and at GOAMD64=v3,
# fuzz the assembly kernels, replay the planner loop-closure guard,
# type-check the bench/ module against the tree, and report the code size.
check: build vet dead race purego v3 fuzz-kernels check-planner bench-build loc
