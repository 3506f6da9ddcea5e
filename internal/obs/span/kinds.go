package span

import "sort"

// KindSchema documents one span kind: what phase of the pipeline it
// covers and which attributes it may carry. Kinds are registered at
// package init via defineKind, so every kind in the codebase has a
// documented schema by construction — TestSpanKindsLint in
// internal/obs checks that the registry stays complete and that live
// spans only use registered kinds and attributes.
type KindSchema struct {
	Name  string
	Doc   string
	Attrs map[string]string // attribute key -> meaning
}

var kindRegistry = map[string]KindSchema{}

// defineKind registers a span kind with its documentation and attribute
// schema (alternating key, meaning pairs) and returns the kind name.
func defineKind(name, doc string, attrs ...string) string {
	if len(attrs)%2 != 0 {
		panic("span: defineKind attrs must be key/doc pairs: " + name)
	}
	m := make(map[string]string, len(attrs)/2)
	for i := 0; i < len(attrs); i += 2 {
		m[attrs[i]] = attrs[i+1]
	}
	if _, dup := kindRegistry[name]; dup {
		panic("span: duplicate kind " + name)
	}
	kindRegistry[name] = KindSchema{Name: name, Doc: doc, Attrs: m}
	return name
}

// Span kinds, one per phase of the admission pipeline. The terminal
// span of a request is the admit/coordinate/forward/migrate span; the
// rest nest underneath it.
var (
	KindAdmit = defineKind("admit",
		"one /v1/admit request decided locally: validate, plan, reserve",
		"job", "job name",
		"admit", "decision verdict (true/false)",
		"queue_wait_us", "time the admit waited for a decision slot",
		"deadline", "job deadline tick",
		"finish", "planned finish tick when admitted",
		"error", "fault that ended the request without a verdict")

	KindValidate = defineKind("validate",
		"request decode + workload validation + deadline-vs-now check",
		"job", "job name",
		"error", "validation failure, when rejected here")

	KindPlan = defineKind("plan",
		"witness-plan search (schedule.Concurrent) over the free view",
		"job", "job name",
		"actors", "number of actors whose phases were searched",
		"attempt", "optimistic replan attempt, when >0 (snapshot conflicted)",
		"error", "infeasibility reason when no witness exists")

	KindReserve = defineKind("reserve",
		"ledger shard locking + commitment write for an admitted plan",
		"job", "job name",
		"shards", "number of location shards touched",
		"attempt", "optimistic validate attempt, when >0 (status reject = conflict, retried)")

	KindCoordinate = defineKind("coordinate",
		"cross-node admission in the admit envelope: merged free view, split demand, 2PC",
		"job", "job name",
		"admit", "decision verdict (true/false)",
		"participants", "number of peer nodes holding demand",
		"queue_wait_us", "time the coordination waited for a decision slot",
		"deadline", "job deadline tick",
		"finish", "planned finish tick when admitted",
		"error", "fault that ended the coordination without a verdict",
		"outcome", "how it ended without a verdict: failed / aborted / crashed / stale_owner / timed_out")

	KindFreeView = defineKind("freeview",
		"fetch of one participant's free resource view",
		"peer", "peer node ID")

	KindPrepare = defineKind("prepare",
		"two-phase prepare: participant-side hold under a TTL lease",
		"job", "job name",
		"key", "two-phase idempotency key",
		"peer", "peer node ID (coordinator side)",
		"held", "whether the hold was granted")

	KindCommit = defineKind("commit",
		"two-phase commit: promote a held prepare into the ledger",
		"job", "job name",
		"key", "two-phase idempotency key",
		"peer", "peer node ID (coordinator side)")

	KindAbort = defineKind("abort",
		"two-phase abort: release a hold (or roll back a commit)",
		"job", "job name",
		"key", "two-phase idempotency key",
		"peer", "peer node ID (coordinator side)",
		"detached", "true when issued from a detached (post-request) context")

	KindForward = defineKind("forward",
		"proxy of a single-location admit to its owning node",
		"job", "job name",
		"peer", "owning node the request was proxied to")

	KindMigrate = defineKind("migrate",
		"make-before-break migration of a commitment to another node",
		"job", "job name",
		"from", "node releasing the commitment",
		"to", "node receiving the demand",
		"outcome", "migrated / rejected / failed")

	KindRPC = defineKind("rpc",
		"one attempt of a peer RPC (retries are separate spans)",
		"peer", "peer node ID",
		"path", "RPC route",
		"attempt", "attempt index, 0-based",
		"error", "attempt failure, when it failed")

	KindQuery = defineKind("query",
		"one-shot temporal query evaluated against the ledger free view",
		"query", "canonical query text",
		"holds", "verdict (true/false)",
		"epoch", "ledger epoch the verdict was taken against",
		"error", "compile or evaluation failure")

	KindWatch = defineKind("watch",
		"standing-query subscription lifetime (SSE stream)",
		"query", "canonical query text",
		"sub", "subscription ID",
		"events", "verdict events delivered over the stream",
		"error", "subscribe failure")

	// Dynamic-membership kinds (internal/cluster/membership.go).
	KindJoin = defineKind("join",
		"steward-side admission of a new member: plan moves, hand off, publish table",
		"member", "joining node ID",
		"epoch", "table epoch the join published",
		"moves", "ownership moves executed",
		"error", "failure that aborted the join")

	KindLeave = defineKind("leave",
		"steward-side removal of a member: hand off (graceful) or promote standbys (forced)",
		"member", "leaving node ID",
		"force", "true when the member is presumed dead",
		"epoch", "table epoch the leave published",
		"error", "failure that aborted the leave")

	KindHandoff = defineKind("handoff",
		"one make-before-break ownership handoff: freeze, export, install on the new owner, drop",
		"to", "node receiving the locations",
		"locations", "number of locations moved",
		"epoch", "table epoch the handoff belongs to",
		"error", "failure that left the locations with the old owner")

	KindPromote = defineKind("promote",
		"standby promotion: adopt locations from gossip-fed shadow exports",
		"locations", "number of locations adopted",
		"epoch", "table epoch the promotion belongs to",
		"shadow_misses", "locations adopted empty because no shadow had arrived",
		"error", "import failure during promotion")

	// Self-healing kinds (internal/cluster/health.go).
	KindRepair = defineKind("repair",
		"journal repair of a dead steward's partially applied membership plan",
		"steward", "dead steward whose intent is being repaired",
		"member", "node the interrupted plan was admitting or removing",
		"kind", "intent kind (join/leave)",
		"stage", "stage the intent had reached when the steward died",
		"epoch", "table epoch the repair published",
		"moves", "ownership moves confirmed complete and kept in the table",
		"error", "failure that aborted the repair")

	KindRejoin = defineKind("rejoin",
		"fenced node dropping its stale state and rejoining the cluster fresh",
		"via", "member the rejoin request goes through",
		"dropped", "owned locations demoted before rejoining",
		"error", "rejoin failure (retried on the next fence)")

	// Sim-bridge kinds: synthetic spans reconstructed from internal/sim
	// JSONL traces so rotatrace -spans analyses simulator runs too.
	KindSimJob = defineKind("sim.job",
		"one simulated job's lifetime from arrival to terminal event",
		"job", "job name",
		"outcome", "terminal event kind (admit/reject/complete/miss/renege)")

	KindSimEvent = defineKind("sim.event",
		"one simulator trace event within a job's lifetime",
		"event", "trace event kind",
		"detail", "event detail string",
		"qty", "resource quantity, when the event carries one")

	// Deadline-assurance kinds (internal/obs/assure, internal/obs/flightrec).
	KindAssure = defineKind("assure",
		"promise-ledger sweep that resolved anomalous terminal outcomes",
		"violated", "promises whose deadline passed while the job was live",
		"orphaned", "promises whose deadline passed with nobody holding the job",
		"job", "job name, when a single promise resolved anomalously")

	KindFlightRec = defineKind("flightrec",
		"anomaly flight-recorder snapshot frozen by a trigger",
		"trigger", "trigger kind that froze the snapshot",
		"snapshot", "snapshot ID serving it at /debug/rota/flightrec/{id}",
		"detail", "trigger detail (job name, audit error, evicted member)")
)

// Kinds returns every registered kind schema, sorted by name.
//
// Kept: the registry-completeness tests of span and obs.
func Kinds() []KindSchema {
	out := make([]KindSchema, 0, len(kindRegistry))
	for _, ks := range kindRegistry {
		out = append(out, ks)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// LookupKind returns the schema for a kind name.
//
// Kept: the tests of span, obs and server that check each recorded
// span's attributes against its kind's schema.
func LookupKind(name string) (KindSchema, bool) {
	ks, ok := kindRegistry[name]
	return ks, ok
}
