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
# in the admit lock path shows there first. It also holds the op stream
# dense under the race: the ops notify sees carry epochs 1…Epoch(), each
# once, and every admitted job's promise carries its reserve op's epoch
# (TestLedgerNoOvercommitUnderRace). The same line repeats the free-view
# tests and the refused release: a shard's free view is its only state,
# planned against outside the lock while writers patch it, so a write
# into a run a reader holds, or a release that writes before it checks,
# shows there. The third repeats the
# standing-query tests — subscribes racing bumps, flips, concurrent
# evaluations, the sweep's wake check and its margins (a take of exactly
# a read's slack skipped, one quantity step more woken, a margin debited
# across skipped sweeps: TestWakeMarginBoundary, which the Wake pattern
# matches) — ten times. The fourth
# repeats the graceful leave queued behind a join ten times: a departed
# member that rejoins on its own shows there first; a location handed
# on before the table granting its install arrived, which the one
# routing overlay must send to its new owner, not back to the emptied
# ledger; admissions racing a join's handoffs; and a commit or abort
# whose slice moved — once, twice, or away from an old owner fenced and
# rejoined since — which the coordinator follows by the slice's
# locations, one redirect per move, with no node remembering the keys it
# handed off. The fifth repeats
# the coordinated admit in the one admit envelope ten times — it holds a
# decision slot through its two-phase rounds, a coordination parked past
# DecisionTimeout aborts every hold and answers 503, and a drain aborts
# in-flight prepares. The sixth repeats the subscribe-then-flip test
# fifty times, the one that waits out Subscribe's self-wake sweep. The
# seventh repeats the span store's concurrency tests ten times: the ring
# copies typed records in at End and out at every read under its lock.
# The eighth repeats the resource algebra's sharing tests ten times:
# chunked profiles share single chunks between the sets goroutines
# derive from one base, so a write into a shared chunk shows there; and
# the allocation budgets that pin a set to one exactly sized run of
# entries, whose Clone is one allocation.
# The ninth repeats the federation-vs-one-ledger differential test, the
# served-once test and the cluster query tests three times: a routed
# request is served by a direct call into the embedded server under the
# handoff freeze, a query reads its owners' views through the server's
# snapshot hook from handler and sweep goroutines alike, and real
# loopback nodes with gossip running are where a lost ordering on those
# paths shows up first. The tenth repeats the membership runner's
# failover tests three times: a steward killed mid-join or mid-leave
# whose plan a survivor finishes through the same runner, a graceful
# leaver that must stay out, a member that accepts connections and
# never answers, which must neither get a live member suspected nor
# delay its own eviction, and a shadow shipment lost to a partition,
# which must be sent again after the heal with the ledger idle.
race:
	$(GO) test -race $(RACE_PKGS)
	$(GO) test -race -count=10 -run 'NoOvercommit|Racing|Expired|CtxDone|FreeView|ReleaseBeyond' ./internal/server/
	$(GO) test -race -count=10 -run 'Subscribe|Bump|Flip|Concurrent|Wake' ./internal/query/ ./internal/server/
	$(GO) test -race -count=10 -run 'LeaveQueuesBehindJoin|HandoffBeforeGrantRoutesToNewOwner|AbortFollowsCommittedKeyAcrossHandoff|ConcurrentAdmissionsDuringHandoff|FinishFollowsLocationMovedTwice|FinishReachesSliceAfterOldOwnerRejoined' ./internal/cluster/
	$(GO) test -race -count=10 -run 'CoordinatedAdmit|DrainAbortsInflightPrepares' ./internal/cluster/
	$(GO) test -race -count=50 -run 'TestSubscribeInitialVerdictAndFlip$$' ./internal/query/
	$(GO) test -race -count=10 -run 'StoreConcurrency|SpanTree' ./internal/obs/span/
	$(GO) test -race -count=10 -run 'SharedProfilesUnderConcurrentPatching|PatchAllocationBudget|SetRunAllocationBudget' ./internal/resource/
	$(GO) test -race -count=3 -run 'TestClusterDecidesAsOneLedger|TestRoutedEndpointsServedOnce|TestClusterQuery' ./internal/cluster/
	$(GO) test -race -count=3 -run 'StewardDeathMid|GracefulLeaveStaysOut|HungMemberSilencesNoOne|ShadowShipmentRetriedAfterPartition' ./internal/cluster/

# Ten seconds of coverage-guided inputs holding the splice kernels and
# clamp to the event-sweep reference, on operands long enough to be
# chunked and cut into chunks as the input says
# (internal/resource/profile_test.go), ten
# holding the single-pass set parser to a NewSet fold of its terms
# (internal/resource/fuzz_test.go), ten holding Eval's
# quantity-summed satisfy atoms to f over the free pool's set
# (internal/core/eval_quantity_test.go), then ten holding every
# single-actor schedule refusal to a true certificate: Θ has less than
# the refused need of its located type within its window
# (internal/schedule/certificate_test.go), then ten holding the
# standing-query sweep to waking every subscription a write flipped
# (internal/server/wake_test.go), then ten holding each holds atom's one
# read to deciding it on its own full speculative path, and a typed
# verdict to not moving under a write outside its reads
# (internal/query/oneread_test.go), then ten holding the free view
# core.State's transition rules maintain to the from-scratch Θ ∖ Σρ
# after every rule and hand edit (internal/core/freeview_test.go), then
# ten holding the hand-written admit-body decoder to json.Unmarshal +
# ValidateJob: both refuse, or both accept equal jobs
# (internal/server/fuzz_test.go), then ten holding the pooled logfmt
# appender to the fmt.Sprintf renderer it replaced, byte for byte, bar
# the quoting of control characters (internal/obs/logline_test.go), then
# ten holding the set algebra — Add, AddSet, Union, PatchUnion, Subtract,
# PatchSubtract, SubtractSaturating, Consume, Clamp, TrimBefore and
# Restrict in fuzz-chosen sequences — to a dense per-type, per-tick
# reference, with types in order, no empty profile and every operand
# unchanged after each op (internal/resource/algebra_fuzz_test.go), then
# ten holding a requirement's sorted runs — every phase's amounts, built
# by merging consecutive single-type steps, one computation at a time or
# all of ConcurrentOf's actors in one pass — to the Amounts maps they
# were built as: the same phases, and equal under lookup, total,
# SingleType, Empty and String (internal/compute/needs_fuzz_test.go),
# then ten holding the temporal query grammar's text parser — the one
# parser of formula text, fed from the command line by rotacheck
# -formula — to never panicking, and everything it accepts to evaluate
# and to re-parse from its canonical rendering to the same verdict
# (internal/query/fuzz_test.go), then ten holding the one-pass set
# builder SetOf, which a plan's per-shard demand and the set parser use,
# to a NewSet fold of the same terms — overlapping, abutting at equal
# rates, null, and in runs longer than a chunk — and UnionOf of two
# halves to the same set (internal/resource/setof_fuzz_test.go).
# -fuzz takes one target per run.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzProfileKernels$$' -fuzztime 10s ./internal/resource/
	$(GO) test -run '^$$' -fuzz '^FuzzParseSet$$' -fuzztime 10s ./internal/resource/
	$(GO) test -run '^$$' -fuzz '^FuzzEvalSatisfy$$' -fuzztime 10s ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzInfeasibleIsACertificate$$' -fuzztime 10s ./internal/schedule/
	$(GO) test -run '^$$' -fuzz '^FuzzWakeCoversFlips$$' -fuzztime 10s ./internal/server/
	$(GO) test -run '^$$' -fuzz '^FuzzHoldsOneRead$$' -fuzztime 10s ./internal/query/
	$(GO) test -run '^$$' -fuzz '^FuzzFreeViewMaintained$$' -fuzztime 10s ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeAdmitRequest$$' -fuzztime 10s ./internal/server/
	$(GO) test -run '^$$' -fuzz '^FuzzLogKV$$' -fuzztime 10s ./internal/obs/
	$(GO) test -run '^$$' -fuzz '^FuzzSetAlgebra$$' -fuzztime 10s ./internal/resource/
	$(GO) test -run '^$$' -fuzz '^FuzzPhasesMatchMaps$$' -fuzztime 10s ./internal/compute/
	$(GO) test -run '^$$' -fuzz '^FuzzParseText$$' -fuzztime 10s ./internal/query/
	$(GO) test -run '^$$' -fuzz '^FuzzSetOfMatchesAdd$$' -fuzztime 10s ./internal/resource/

# benchmark/ is a module of its own. Tier-1 type-checks its non-test
# packages (the reachability guard in decls_test.go roots its mains), so
# a deletion under internal/ that breaks it already fails `go test .`;
# vetting it here adds vet's checks and its test files (see
# benchmark/README.md).
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
