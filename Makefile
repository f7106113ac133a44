GO ?= go
FUZZTIME ?= 10s

.PHONY: build vet test race cover serve fuzz-smoke bench-explore bench-serve bench-dse bench-profile bench-trace check check-smoke ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The exploration engine shards design points over goroutines; every
# test must stay clean under the race detector.
race:
	$(GO) test -race ./...

# Coverage profile + per-function summary (coverage.out/coverage.txt are
# uploaded as a CI artifact).
cover:
	$(GO) test -coverprofile=coverage.out -covermode=atomic ./...
	$(GO) tool cover -func=coverage.out > coverage.txt
	@tail -n 1 coverage.txt

# Run the HTTP prediction/DSE service (see docs/SERVE.md).
serve:
	$(GO) run ./cmd/flexcl-serve

# Short fuzzing pass over the frontend targets: the seed corpora (all
# bundled Rodinia/PolyBench kernels plus hostile fragments) run on every
# plain `go test`; this additionally mutates for $(FUZZTIME) per target.
# Patterns are anchored: an unanchored -fuzz=FuzzParse matches both
# FuzzParse and FuzzParser and `go test` refuses to fuzz at all.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzLexer$$' -fuzztime=$(FUZZTIME) ./internal/opencl/lexer
	$(GO) test -run='^$$' -fuzz='^FuzzParser$$' -fuzztime=$(FUZZTIME) ./internal/opencl/parser
	$(GO) test -run='^$$' -fuzz='^FuzzParse$$' -fuzztime=$(FUZZTIME) ./internal/opencl/parser
	$(GO) test -run='^$$' -fuzz='^FuzzLowerBound$$' -fuzztime=$(FUZZTIME) ./internal/dse
	$(GO) test -run='^$$' -fuzz='^FuzzAffineAnalyzer$$' -fuzztime=$(FUZZTIME) ./internal/interp
	$(GO) test -run='^$$' -fuzz='^FuzzClassifyGrouped$$' -fuzztime=$(FUZZTIME) ./internal/trace

# Serial-vs-parallel exploration wall time (see docs/MODEL.md
# "Exploration performance").
bench-explore:
	$(GO) test -run='^$$' -bench=BenchmarkExploreParallel -benchtime=3x .

# Prediction-path benchmarks: coalesced vs uncoalesced concurrent
# predictions (compare the computes/op metric — the singleflight prep
# cache turns 32 compile+analyze executions into 1), the cache-hit
# latency floor, and the cold-start vs warm-restart proof — the stride-6
# corpus served twice against one artifact directory, with per-request
# p50/p99, compute counts and the zero-recompute warm restart written to
# BENCH_serve.json (a CI artifact). See docs/API.md "Coalescing" and
# docs/SERVE.md "Persistent artifacts".
bench-serve:
	$(GO) test -run='^$$' -bench='BenchmarkPredict|BenchmarkServe' -benchtime=1x ./internal/serve
	BENCH_SERVE_JSON=$(CURDIR)/BENCH_serve.json $(GO) test -run='^TestWarmRestartArtifact$$' -count=1 -v ./internal/serve

# Guided search vs exhaustive exploration: per-kernel evaluations, wall
# time and speedup, written to BENCH_dse.json (a CI artifact). Uses the
# smoke kernel subset; BENCH_DSE_FLAGS=-bench-all runs all 60 kernels.
bench-dse:
	$(GO) run ./cmd/flexcl-dse -bench-json BENCH_dse.json $(BENCH_DSE_FLAGS)

# Static profiler fast path vs the interpreter: per-kernel prep wall
# time and speedup, written to BENCH_profile.json (a CI artifact). Uses
# the smoke kernel subset; BENCH_PROFILE_FLAGS=-all runs the full corpus
# plus the generated families.
bench-profile:
	$(GO) run ./cmd/flexcl-profile -json BENCH_profile.json $(BENCH_PROFILE_FLAGS)

# Tracing overhead proof: the predict hot path benchmarked with the
# tracer on vs off, written to BENCH_trace.json (a CI artifact). The
# budget is <3% overhead; the artifact records the measured ratio. See
# docs/OBSERVABILITY.md.
bench-trace:
	BENCH_TRACE_JSON=$(CURDIR)/BENCH_trace.json $(GO) test -run='^TestTraceOverheadArtifact$$' -count=1 -v ./internal/serve

# Cross-layer correctness audit (see docs/CHECK.md): model invariants,
# differential bands vs the simulator, serve consistency. check-smoke is
# the time-boxed subset CI runs on every push; check is the full corpus.
check:
	$(GO) run ./cmd/flexcl-check

# check-smoke also runs tracelint: every telemetry span must be ended or
# delegated (see cmd/tracelint) — an unended span never reaches the
# trace ring and skews the stage histograms.
check-smoke:
	$(GO) run ./cmd/tracelint -root .
	$(GO) run ./cmd/flexcl-check -smoke -timeout 5m

ci: build vet race fuzz-smoke bench-dse bench-profile bench-trace check-smoke
