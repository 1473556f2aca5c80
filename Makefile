# CI entry points. `make ci` is what every PR must keep green: gofmt,
# build, vet, the repo's own static-analysis suite (cmd/ilint), the
# full test suite, and the race detector over the internal packages — lint and
# race together enforce the concurrency contract the parallel induction
# pipeline relies on (immutable sources, locked catalog, deterministic
# rule numbering).

GO ?= go

.PHONY: ci fmt build vet lint lint-baseline test race bench bench-check serve chaos smoke-replication

ci: fmt vet build lint test race

# gofmt -l names every Go file whose layout differs from gofmt's; any
# name fails the build.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l reports:"; echo "$$out"; exit 1; fi

# The eight repo-specific passes: lockguard, maporder, rowalias,
# errdrop, faultseam, ctxflow, snapfreeze, fsyncorder. See DESIGN.md
# "Static analysis". Findings not absorbed by the committed baseline
# fail the build, as do stale baseline entries — a fixed finding must
# be removed from lint-baseline.json (run `make lint-baseline`), never
# silently carried. lint.json is the machine-readable artifact CI
# uploads and the problem matcher annotates PR diffs from.
lint:
	$(GO) run ./cmd/ilint -baseline lint-baseline.json -json lint.json ./...

# Regenerate the suppression file. The baseline exists for landing the
# analysis before the last legacy findings are fixed; shrinking it is
# the goal, growing it needs justification in review (the diff of
# lint-baseline.json makes either visible).
lint-baseline:
	$(GO) run ./cmd/ilint -write-baseline lint-baseline.json ./...

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# bench/ is a module of its own (the benchmark driver's contract), so
# ./... above never reaches it: vet it and run its short tests here, or
# a signature change in core/server/replica/wal breaks it unseen.
test:
	$(GO) test ./...
	cd bench && $(GO) vet ./... && $(GO) test -short ./...

race:
	$(GO) test -race ./internal/...

# Machine-readable benchmark snapshots. Each run pipes the standard
# -bench exposition through cmd/benchjson, leaving BENCH_induce.json
# and BENCH_query.json (name, iterations, ns/op, B/op, allocs/op) —
# committed as the regression baseline bench-check diffs against.
# Baselines and checks share one timing regime, BENCHTIME: at 1x a
# benchmark's B/op can be bimodal (one cold iteration decides it), while
# 10x averages the allocation counts over warm iterations and keeps the
# whole suite to about a minute. Re-record with `make bench` if it moves.
BENCHTIME ?= 10x
INDUCE_BENCHES = Induce|Table1|Tree
QUERY_BENCHES  = Query|Infer|EndToEnd|Join|Indexed|Explain|Prepared
bench:
	$(GO) test -bench '$(INDUCE_BENCHES)' -benchmem -benchtime $(BENCHTIME) -run xxx . \
		| $(GO) run ./cmd/benchjson -o BENCH_induce.json
	$(GO) test -bench '$(QUERY_BENCHES)' -benchmem -benchtime $(BENCHTIME) -run xxx . \
		| $(GO) run ./cmd/benchjson -o BENCH_query.json

# Re-run the benchmark suites and fail on a >25% regression against the
# committed BENCH_*.json baselines. Allocation metrics (allocs/op,
# B/op) are fatal — they are deterministic, so they compare across
# machines — and so is a baseline benchmark that no longer runs; ns/op
# is not compared. Does not overwrite the baselines; run `make bench` to
# refresh them after an intended change, or hand-remove a row whose
# benchmark was deleted.
bench-check:
	$(GO) test -bench '$(INDUCE_BENCHES)' -benchmem -benchtime $(BENCHTIME) -run xxx . \
		| $(GO) run ./cmd/benchjson -compare BENCH_induce.json -threshold 25
	$(GO) test -bench '$(QUERY_BENCHES)' -benchmem -benchtime $(BENCHTIME) -run xxx . \
		| $(GO) run ./cmd/benchjson -compare BENCH_query.json -threshold 25

# Seeded crash-recovery harness (cmd/chaos): cycles of mutate → inject
# disk death → kill → reopen, asserting after every cycle that
# acknowledged batches survive exactly once and no serving rule is
# contradicted by the recovered data. Deterministic per seed; a failure
# prints the exact reproduction command.
CHAOS_ITERS ?= 200
CHAOS_SEED  ?= 1
# The replica scenario (chaos -scenario replica) runs fewer cycles:
# each one includes condition-based reconvergence waits over loopback
# HTTP. The network-fault scenarios — bootstrap (mid-transfer link
# drops with spool resume) and reconfig (live leader swaps under load)
# — run the full 200 cycles; slowlink is short because every cycle
# deliberately waits out a throttled transfer.
CHAOS_REPLICA_ITERS  ?= 50
CHAOS_NETFAULT_ITERS ?= 200
CHAOS_SLOWLINK_ITERS ?= 5
chaos:
	$(GO) run ./cmd/chaos -iters $(CHAOS_ITERS) -seed $(CHAOS_SEED)
	$(GO) run ./cmd/chaos -scenario replica -iters $(CHAOS_REPLICA_ITERS) -seed $(CHAOS_SEED)
	$(GO) run ./cmd/chaos -scenario bootstrap -iters $(CHAOS_NETFAULT_ITERS) -seed $(CHAOS_SEED)
	$(GO) run ./cmd/chaos -scenario reconfig -iters $(CHAOS_NETFAULT_ITERS) -seed $(CHAOS_SEED)
	$(GO) run ./cmd/chaos -scenario slowlink -iters $(CHAOS_SLOWLINK_ITERS) -seed $(CHAOS_SEED)

# Two-process replication smoke: a real leader and follower iqpd on
# loopback — mutate on the leader, read your write on the follower via
# the token, kill and restart the follower mid-stream, and assert
# convergence (same walSeq, identical answers).
smoke-replication:
	sh scripts/smoke_replication.sh

# Run the intensional-answer server on the paper's ship test bed.
# Try: curl -s localhost:8473/healthz
serve:
	$(GO) run ./cmd/iqpd -addr :8473
