GO ?= go

# Packages whose concurrency matters enough to pay for -race on every run:
# the daemon (sharded ledger + HTTP server, including the admit-timeout
# refuse-at-reserve and interrupted-drain regressions), the cluster federation layer (two-phase
# coordination + gossip, including the injected-crash and drain
# integration tests), the observability layer (shared Observer +
# per-endpoint stats), the span store (lock-free-looking ring buffer fed
# by every request), the metrics histogram, the core decision path they
# drive, the self-healing layer (φ-accrual detector fed from every
# gossip receipt, fault-injection transport under concurrent RPCs), the
# resource algebra, whose shared immutable profiles the ledger's
# cache, its snapshots and every concurrent plan search read at once,
# and the selftest harness, whose single-node, cluster and chaos runs
# drive all of them at once from concurrent load clients.
RACE_PKGS = ./internal/resource/ ./internal/server/ ./internal/cluster/ ./internal/membership/ ./internal/query/ ./internal/obs/ ./internal/obs/span/ ./internal/metrics/ ./internal/admission/ ./internal/core/ ./internal/schedule/ ./internal/health/ ./internal/fault/ ./internal/selftest/

.PHONY: ci fmt vet build test race fuzz-smoke benchmark-vet selftest cluster-selftest chaos-selftest clean

# Each end-to-end harness boots once: every invocation runs every probe
# it has (query, span, assure), so one run per harness covers them all.
ci: fmt vet build test race fuzz-smoke benchmark-vet selftest cluster-selftest chaos-selftest

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The second line repeats the ledger's concurrency tests (the 64-way
# squeeze, racing admits, refusals at reserve) ten times: a lost ordering
# in the admit lock path shows there first. The third repeats the
# standing-query tests — subscribes racing bumps, flips, the pooled
# evaluation path, the sweep's wake check — ten times. The fourth
# repeats the graceful leave queued behind a join ten times: a departed
# member that rejoins on its own shows there first.
race:
	$(GO) test -race $(RACE_PKGS)
	$(GO) test -race -count=10 -run 'NoOvercommit|Racing|Expired|CtxDone' ./internal/server/
	$(GO) test -race -count=10 -run 'Subscribe|Bump|Flip|Concurrent|Wake' ./internal/query/ ./internal/server/
	$(GO) test -race -count=10 -run 'LeaveQueuesBehindJoin' ./internal/cluster/

# Ten seconds of coverage-guided inputs holding the splice kernels to
# the event-sweep reference (internal/resource/profile_test.go), ten
# holding the single-pass set parser to a NewSet fold of its terms
# (internal/resource/fuzz_test.go), ten holding Eval's
# quantity-summed satisfy atoms to f over the set FreeWithin builds
# (internal/core/eval_quantity_test.go), then ten holding every
# single-actor schedule refusal to a true certificate: Θ has less than
# the refused need of its located type within its window
# (internal/schedule/certificate_test.go), then ten holding the
# standing-query sweep to waking every subscription a write flipped
# (internal/server/wake_test.go), then ten holding the free view
# core.State's transition rules maintain to the from-scratch Θ ∖ Σρ
# after every rule and hand edit (internal/core/freeview_test.go), then
# ten holding the hand-written admit-body decoder to json.Unmarshal +
# ValidateJob: both refuse, or both accept equal jobs
# (internal/server/fuzz_test.go).
# -fuzz takes one target per run.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzProfileKernels$$' -fuzztime 10s ./internal/resource/
	$(GO) test -run '^$$' -fuzz '^FuzzParseSet$$' -fuzztime 10s ./internal/resource/
	$(GO) test -run '^$$' -fuzz '^FuzzEvalSatisfy$$' -fuzztime 10s ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzInfeasibleIsACertificate$$' -fuzztime 10s ./internal/schedule/
	$(GO) test -run '^$$' -fuzz '^FuzzWakeCoversFlips$$' -fuzztime 10s ./internal/server/
	$(GO) test -run '^$$' -fuzz '^FuzzFreeViewMaintained$$' -fuzztime 10s ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeAdmitRequest$$' -fuzztime 10s ./internal/server/

# benchmark/ is a module of its own that tier-1 neither builds nor
# tests; vetting it here catches an exported name under internal/ that
# changed out from under it (see benchmark/README.md).
benchmark-vet:
	cd benchmark && $(GO) vet ./...

# The selftests run the harness in internal/selftest through rotaload,
# which boots the daemon in-process on loopback ports. -seed 42 keeps the
# job streams these targets have always driven.
#
# End-to-end: daemon + ≥1000 requests through the HTTP API. Its query
# probe must see one-shot GET/POST agreement and /v1/watch verdict flips
# for a reservation landing, its release, a leased hold, and a lease
# expiring.
selftest:
	$(GO) run ./cmd/rotaload -selftest -n 1000 -clients 8 -seed 42

# End-to-end: 3-node loopback cluster + coordinator-crash injection +
# ≥1000 mixed admits + lease-sweep and per-node audit verification. The
# span probe must reconstruct a connected cross-node span tree, print
# its critical path, and leave every reject carrying decision
# provenance; the query probes check fan-out equivalence and a watch
# flipped by a coordinated admission; the assure probes must see zero
# violated promises cluster-wide, promise continuity for every pinned
# seed job across the mid-run failover (kept or active on the promoted
# owner, never orphaned), and the /v1/assure fan-out totals agreeing
# with the per-node ledgers (EXPERIMENTS.md E13, E14, E18).
cluster-selftest:
	$(GO) run ./cmd/rotaload -selftest -cluster 3 -n 1000 -clients 8 -locations 6 -seed 42

# End-to-end self-healing check: a 3-node loopback cluster wired through
# the fault-injection transport runs a seeded kill/partition/heal
# schedule under live load with no operator — every eviction must come
# from the φ-accrual detector + quorum rule, the healed partition must
# fence-and-rejoin on its own, no committed reservation may be lost,
# every audit must stay clean (EXPERIMENTS.md E16), and the assure probe
# requires ≥1 flight-recorder snapshot whose merged spans form a
# connected cross-node timeline (E18).
chaos-selftest:
	$(GO) run ./cmd/rotaload -selftest -chaos -cluster 3 -n 150 -clients 4 -locations 6 -seed 42

clean:
	$(GO) clean ./...
