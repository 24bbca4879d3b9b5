# Developer entry points. CI runs `make check`; `make bench` refreshes the
# machine-readable perf trajectory in BENCH_greedy.json so performance PRs
# have a baseline to regress against.

GO ?= go
NPROC ?= $(shell nproc 2>/dev/null || echo 2)

.PHONY: build test vet fmt race check bench-check smoke chaos linkcheck bench bench-parallel bench-chaos bench-codec fuzz mutate-gate mutate-gate-fast

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fail when any file is not gofmt-clean (CI gate).
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# Race-check the packages with lock-free parallel paths (chunked evalPairs,
# shared Solver sessions, per-stripe farming, the serving registry/batcher,
# the cluster coordinator's scatter/gather fan-out) and the sinks every
# request record feeds (the trace recorder and ring, the usage meters).
# The second line repeats the race between a session's concurrent first
# solves, which publish its round-one memo.
race:
	$(GO) test -race ./internal/config/ ./internal/pricing/ ./internal/wtp/ ./internal/codec/ ./internal/server/ ./internal/cluster/ ./internal/obs/ ./internal/usage/ ./client/
	$(GO) test -race -count=10 -run TestRoundMemoConcurrentFirstSolves ./internal/config/

# The benchmark runner is a module of its own (bench/go.mod), so ./... in
# the targets above never compiles it; vet and self-test it explicitly so an
# API change it depends on cannot break it unnoticed.
bench-check:
	cd bench && $(GO) vet . && $(GO) test .

check: fmt vet build test race linkcheck bench-check

# Fail on broken intra-repo markdown links in README.md and docs/ (the
# docs CI job's gate; external URLs are not fetched).
linkcheck:
	./scripts/checklinks.sh

# Boot the bundled daemon on a sample corpus and drive the client smoke
# test against it (fails on any non-200). CI runs this after `check`.
smoke:
	./scripts/smoke.sh

# Fault-injection suite under the race detector: chaos transports (errors,
# stale spans, blackholes, partitions), breaker trip/probe/recover cycles,
# overload shedding, deadline propagation and panic recovery. CI runs this
# as its own job; it is slower than `race` because blackhole scenarios wait
# out real RPC deadlines.
chaos:
	$(GO) test -race -run 'TestChaos|TestBreaker|TestSolveContext|TestEvaluateContext|TestLimiter|TestOverload|TestDeadline|TestPanic|TestBatcher' ./internal/cluster/ ./internal/server/

# Benchmark the algorithm hot paths (one-shot and warm-session rows) at
# bench scale and write machine-readable results. Compare against the
# committed BENCH_greedy.json before and after performance work.
bench:
	$(GO) run ./cmd/bundlebench -exp perf -benchout BENCH_greedy.json

# Same benchmark with the candidate-pricing worker pool pinned to the
# machine's core count, written to a separate file so multi-core runs are
# distinguishable from the single-core trajectory (the report records
# numcpu/maxprocs/parallelism).
bench-parallel:
	$(GO) run ./cmd/bundlebench -exp perf -parallel $(NPROC) -benchout BENCH_parallel.json

# Benchmark the resilience layer: the distributed evaluate path over a
# 3-worker fleet with fault-injecting transports at 0/10/30% error rates,
# recording throughput, p99 and the fallback rate while equivalence-checking
# every result against the single-machine solver (BENCH_chaos.json).
bench-chaos:
	$(GO) run ./cmd/bundlebench -exp chaos -benchout BENCH_chaos.json

# Certify the binary columnar codec at the paper's corpus scale: payload
# bytes and encode/decode throughput vs JSON for the matrix, span-feed and
# corpus-record envelopes, plus all five algorithms solved over a binary-fed
# HTTP worker fleet and equivalence-checked within 1e-9 (on a recorded
# solver-tractable slice of the corpus — full-scale pair pricing takes
# hours). The harness fails if the span or record payload exceeds half its
# JSON size, so the committed BENCH_codec.json is a size and correctness
# certificate.
bench-codec:
	$(GO) run ./cmd/bundlebench -exp codec -scale full -benchout BENCH_codec.json

# Certify the incremental mutation path at the paper's corpus scale: a
# 1-cell PATCH delta (decode, per-stripe posting maintenance, singleton
# repair, registry swap) timed against a full binary re-upload through a
# real HTTP server, with every mutation replayed onto a shadow matrix and
# the patched session equivalence-checked against a from-scratch rebuild
# within 1e-9. Fails unless the 1-cell delta costs under 5% of the
# re-upload, so the committed BENCH_mutate.json is a cost and correctness
# certificate for delta upserts.
mutate-gate:
	$(GO) run ./cmd/bundlebench -exp mutate -scale full -benchout BENCH_mutate.json
	grep -q '"gate_passed": true' BENCH_mutate.json

# The same gate at bench scale (seconds, not minutes) for the per-PR CI job.
mutate-gate-fast:
	$(GO) run ./cmd/bundlebench -exp mutate | tee /tmp/mutate-bench.out
	grep -q 'mutate_gate=ok' /tmp/mutate-bench.out

# Short fuzz pass over the incremental-union equivalence property, the WTP
# matrix's Set/Delete/WithDelta sequences against a dense shadow, and the
# mixed-bundling price sweep against its per-level reference, then over
# each binary codec decoder (truncated, corrupt and hostile inputs must
# error — never panic or over-allocate). `go test -fuzz` takes one target
# per run, hence the loop.
fuzz:
	$(GO) test ./internal/wtp -fuzz FuzzUnionVectors -fuzztime 30s -run '^$$'
	$(GO) test ./internal/wtp -fuzz FuzzMatrixOps -fuzztime 15s -run '^$$'
	$(GO) test ./internal/pricing -fuzz FuzzPriceMixedStep -fuzztime 15s -run '^$$'
	for f in FuzzDecodeMatrix FuzzDecodeSpan FuzzDecodeRecord FuzzDecodeAssign FuzzDecodeDelta; do \
		$(GO) test ./internal/codec -fuzz $$f -fuzztime 15s -run '^$$' || exit 1; \
	done
