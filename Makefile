# ε-PPI reproduction — convenience targets.

GO ?= go

.PHONY: all build test cover vet bench bench-check race fuzz smoke experiments examples clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# -timeout turns a deadlocked parallel construction (a hung MPC session,
# a leaked worker) into a stack-dumping failure instead of a stuck CI job.
# -shuffle=on randomizes test order so inter-test state dependencies
# cannot hide; the seed is printed on failure for replay.
test:
	$(GO) test -timeout 10m -shuffle=on ./...

# Coverage profile plus the per-function summary CI uploads as an
# artifact (coverage.out for tooling, coverage.txt for humans).
cover:
	$(GO) test -timeout 10m -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tee coverage.txt

race:
	$(GO) test -race -timeout 15m ./...

# Boot eppi-serve, run one query, and assert /v1/metrics and /v1/traces
# answer with live data (see scripts/smoke.sh).
smoke:
	sh scripts/smoke.sh

# Every paper table and figure at quick scale, through eppi-bench: the
# one way to run the experiments (`make experiments` is full scale).
bench:
	$(GO) run ./cmd/eppi-bench -experiment all -quick

# bench/ is its own module, so build/vet/test above never see it: compile
# and test the benchmark harness against the current internal/ packages.
# Not part of `test` — it holds a ~12 s timing-dependent test.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test -timeout 5m ./...

# Short fuzz session over every fuzz target. The batch equivalence fuzz
# gets the longest slice: it drives the whole gateway query path.
fuzz:
	$(GO) test -fuzz=FuzzUnmarshalBinary -fuzztime=10s -run '^$$' ./internal/bitmat/
	$(GO) test -fuzz=FuzzOwnerMajor -fuzztime=10s -run '^$$' ./internal/bitmat/
	$(GO) test -fuzz=FuzzBeta -fuzztime=10s -run '^$$' ./internal/mathx/
	$(GO) test -fuzz=FuzzLambda -fuzztime=10s -run '^$$' ./internal/mathx/
	$(GO) test -fuzz=FuzzBatchEquivalence -fuzztime=30s -run '^$$' ./internal/gateway/
	$(GO) test -fuzz=FuzzWireDecode -fuzztime=10s -run '^$$' ./internal/httpapi/
	$(GO) test -fuzz=FuzzReadFrame -fuzztime=10s -run '^$$' ./internal/index/
	$(GO) test -fuzz=FuzzNameIndex -fuzztime=10s -run '^$$' ./internal/index/
	$(GO) test -fuzz=FuzzGMWWideEquivalence -fuzztime=10s -run '^$$' ./internal/gmw/
	$(GO) test -fuzz=FuzzWideWordsEquivalence -fuzztime=10s -run '^$$' ./internal/gmw/
	$(GO) test -fuzz=FuzzPublishKernel -fuzztime=10s -run '^$$' ./internal/core/
	$(GO) test -fuzz=FuzzThresholds -fuzztime=10s -run '^$$' ./internal/core/
	$(GO) test -fuzz=FuzzSecureEqualsTrusted -fuzztime=10s -run '^$$' ./internal/core/
	$(GO) test -fuzz=FuzzSuperShareDecode -fuzztime=10s -run '^$$' ./internal/secsum/
	$(GO) test -fuzz=FuzzSuperShareKernel -fuzztime=10s -run '^$$' ./internal/secsum/

# Regenerate every paper table and figure at full scale.
experiments:
	$(GO) run ./cmd/eppi-bench -experiment all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/healthcare
	$(GO) run ./examples/attacklab
	$(GO) run ./examples/distributed
	$(GO) run ./examples/university

clean:
	$(GO) clean ./...
