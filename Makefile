# MedSen build targets. The module is stdlib-only; everything runs offline.

GO ?= go

.PHONY: all build test race bench bench-json bench-compare bench-gate loadgen-smoke loadgen-json batch-loadgen-smoke worker-chaos-soak disk-chaos-soak worker-loadgen-smoke fuzz vet fmt experiments clean

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

test: vet
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One testing.B pass per paper figure/experiment (quick scale).
bench:
	$(GO) test -bench=. -benchmem -run '^$$' .

# Refresh the committed hot-path baseline (run on a quiet machine).
bench-json:
	$(GO) run ./cmd/medsen-bench -json BENCH_26.json

# Re-measure the hot paths and fail on a regression vs. the baseline.
bench-compare:
	$(GO) run ./cmd/medsen-bench -compare BENCH_26.json

# Allocation gate: the blocking flavour of bench-compare. Steady-state
# allocs/op is deterministic, so it blocks at 25% — enough headroom for
# pool-refill amortization (a GC between iterations re-fills sync.Pool
# arenas, and short runs weigh those one-time allocs more), while any real
# regression (a re-boxed sort, a lost arena) is 2×+. B/op shares the
# amortization noise (400% headroom still catches the 100×-class misses)
# and ns/op is machine-dependent, so both are effectively advisory here
# (bench-compare is the full check). Both compares run the harness at the
# baseline's recorded GOMAXPROCS.
bench-gate:
	$(GO) run ./cmd/medsen-bench -compare BENCH_26.json -bench-time 200ms \
		-threshold-allocs 25 -threshold-bytes 400 -threshold-ns 1000000

# Fleet smoke: 100 simulated devices against a self-hosted service; fails on
# any capture loss. Writes the SLO summary next to the bench baselines.
loadgen-smoke:
	$(GO) run ./cmd/medsen-loadgen -self-host -devices 100 -captures 1 -dedup 0.1 -json LOADGEN_SLO.json

# Refresh the committed fleet SLO baseline (run on a quiet machine).
loadgen-json:
	$(GO) run ./cmd/medsen-loadgen -self-host -devices 100 -captures 2 -dedup 0.1 -json LOADGEN_7.json

# Batched-submission smoke: each device coalesces its captures into
# /api/v1/analyses:batch requests; fails on any capture loss and reports the
# measured amortization (captures per round trip).
batch-loadgen-smoke:
	$(GO) run ./cmd/medsen-loadgen -self-host -devices 20 -captures 8 -batch 8 \
		-dedup 0.1 -capture-duration 2 -json LOADGEN_BATCH.json

# Distributed-topology chaos gate: workers killed/stalled mid-job across
# three seeds; zero capture loss, exactly one analysis per capture.
worker-chaos-soak:
	$(GO) test -race -run TestWorkerChaosSoak -count=1 ./internal/faultinject

# Durable-state chaos gate: several service lives over one state directory
# under seeded disk faults, a full-disk degraded window, and deliberate
# between-life corruption; every acked capture survives bitwise intact and
# each restart quarantines exactly the broken documents.
disk-chaos-soak:
	$(GO) test -race -run TestDiskChaosSoak -count=1 ./internal/faultinject

# Fleet smoke in the distributed topology: frontend in lease mode plus
# pull-mode workers, with the Prometheus report round-tripped through the
# strict exposition parser.
worker-loadgen-smoke:
	$(GO) run ./cmd/medsen-loadgen -self-host -self-host-workers 2 -async \
		-devices 8 -captures 1 -capture-duration 2 -prom LOADGEN_WORKER.prom

# Short fuzz passes over every wire-format parser.
fuzz:
	$(GO) test -fuzz FuzzReadFrame -fuzztime 30s ./internal/accessory
	$(GO) test -fuzz FuzzReceiveData -fuzztime 30s ./internal/accessory
	$(GO) test -fuzz FuzzDecodeAcquisition -fuzztime 30s ./internal/csvio
	$(GO) test -fuzz FuzzDecompressAcquisition -fuzztime 30s -fuzzminimizetime 1s ./internal/csvio
	$(GO) test -fuzz FuzzInflate -fuzztime 30s -fuzzminimizetime 1s ./internal/csvio
	$(GO) test -fuzz FuzzDeflate -fuzztime 30s -fuzzminimizetime 1s ./internal/csvio
	$(GO) test -fuzz FuzzParseSample -fuzztime 30s ./internal/csvio
	$(GO) test -fuzz FuzzBatchRequest -fuzztime 10s ./internal/cloud
	$(GO) test -fuzz FuzzWorkqueueBodies -fuzztime 10s ./internal/cloud
	$(GO) test -fuzz FuzzDecodeEnvelope -fuzztime 10s ./internal/cloud
	$(GO) test -fuzz FuzzParseChain -fuzztime 10s ./internal/audit
	$(GO) test -fuzz FuzzUnmarshalSchedule -fuzztime 30s ./internal/cipher
	$(GO) test -fuzz FuzzImportShared -fuzztime 30s ./internal/cipher

# Regenerate the paper's full evaluation (minutes).
experiments:
	$(GO) run ./cmd/medsen-bench

clean:
	$(GO) clean ./...
