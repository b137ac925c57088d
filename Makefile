# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet test test-short race bench bench-scale bench-ref bench-ref-compare bench-ref-check experiments fmt cover apicompat doclint linkcheck loc knobs

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

# Reference benchmark (BENCHMARK.json, bench/README.md): every workload,
# three untraced runs on seeds 1..3 plus one traced pass each. To compare
# two commits, keep the other side's result as bench/out/old.json.
bench-ref:
	bash bench/run.sh --workload all --seed 1 --repeat 3 -o bench/out/new.json

bench-ref-compare:
	bash bench/run.sh -compare bench/out/old.json bench/out/new.json

# Pre-flight before submitting a performance change: every workload of
# BENCHMARK.json for 5 s, untraced and traced, each required to exit 0 with
# "correct":true and "failed":0 (~2 min).
bench-ref-check:
	scripts/bench-ref-check.sh

# Macro-benchmark scale sweep: boot an in-process Layer-7 fleet per grid
# point (redirector count × tree fanout × offered load), drive it with
# open-loop seeded Poisson streams over loopback TCP, and emit
# BENCH_scale.json (untracked: a sweep result is only comparable with
# another one from the same machine and commit range). Fails if any point
# settles with under-floor windows or transport errors.
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

# Non-blank, non-comment, non-test Go lines per package (bench/ excluded):
# the one count simplicity PRs quote before and after.
loc:
	scripts/loc.sh

# Option audit: exported *Config/*Options fields nothing outside their
# declaring file sets, minus scripts/knobs.allow (also run in CI).
knobs:
	scripts/knobs.sh

fmt:
	gofmt -w .

cover:
	$(GO) test -coverprofile=cover.out ./... && $(GO) tool cover -func=cover.out | tail -1
