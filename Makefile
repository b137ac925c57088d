# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet test test-short race bench bench-json bench-scale bench-ref bench-ref-compare experiments fmt cover apicompat doclint linkcheck

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# One-pass fast-path report: run the window benchmarks and the tree codec
# micro-benchmarks (frame and delta codecs) with -benchmem and emit
# BENCH_lp_fastpath.json (ns/op, allocs/op, cache hit rate, bytes/frame)
# with the committed seed numbers embedded as the baseline.
bench-json:
	$(GO) test -run XXX -bench 'WindowSchedule|AdmitPerRequest|AdmitParallel|WindowTraceOverhead|SpanOverhead|FrameCodec|DeltaCodec' -benchmem \
		. ./internal/treenet ./internal/combining \
		| $(GO) run ./cmd/benchjson -baseline BENCH_seed.json -o BENCH_lp_fastpath.json
	@cat BENCH_lp_fastpath.json

# Reference benchmark (BENCHMARK.json, bench/README.md): every workload,
# three untraced runs on seeds 1..3 plus one traced pass each. To compare
# two commits, keep the other side's result as bench/out/old.json.
bench-ref:
	bash bench/run.sh --workload all --seed 1 --repeat 3 -o bench/out/new.json

bench-ref-compare:
	bash bench/run.sh -compare bench/out/old.json bench/out/new.json

# Macro-benchmark scale sweep: boot an in-process Layer-7 fleet per grid
# point (redirector count × tree fanout × offered load), drive it with
# open-loop seeded Poisson streams over loopback TCP, and emit
# BENCH_scale.json (benchjson shape). Fails if any point settles with
# under-floor windows or transport errors.
bench-scale:
	$(GO) run ./cmd/loadgen -sweep -o BENCH_scale.json
	@cat BENCH_scale.json

# Documentation gates: exported-identifier godoc coverage and markdown
# link integrity (both also run in CI).
doclint:
	scripts/doclint.sh

linkcheck:
	scripts/linkcheck.sh

# Regenerate every paper figure and print paper-vs-measured tables.
experiments:
	$(GO) run ./cmd/experiment -id all

# Exported-API compatibility against the parent commit (see
# scripts/apicompat.allow for deliberate breaks).
apicompat:
	scripts/apicompat.sh

fmt:
	gofmt -w .

cover:
	$(GO) test -coverprofile=cover.out ./... && $(GO) tool cover -func=cover.out | tail -1
