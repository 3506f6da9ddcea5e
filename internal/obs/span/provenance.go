package span

// Provenance is the structured explanation of a rejection: which stage
// of the admission pipeline said no, which constraint it applied, and —
// when the refusal names one — the resource term and interval window
// that failed. admission.Explain fills it from the typed refusal; it is
// attached to the terminal span of a rejected request and surfaced
// verbatim in the /v1/admit JSON response, so a caller never has to
// parse prose to learn why a job was refused.
type Provenance struct {
	// Stage is the pipeline phase that produced the rejection:
	// validate, plan, capacity, or other.
	Stage string `json:"stage"`
	// Constraint names the violated rule within the stage: deadline,
	// witness (no feasible schedule), ordering (permutation budget
	// exhausted), free-view (a shard cannot hold the plan), or other.
	Constraint string `json:"constraint"`
	// Term is the located type that could not be satisfied, rendered
	// as the ledger renders it (e.g. "⟨cpu,l3⟩"), or for a capacity
	// refusal the shard (e.g. "l3").
	Term string `json:"term,omitempty"`
	// Window is the interval the term was needed in, e.g. "(12,40)".
	Window string `json:"window,omitempty"`
	// Node is the cluster node whose free view failed the request —
	// the participant named by a refused prepare's Overcommit.
	Node string `json:"node,omitempty"`
	// Detail is the refusal's human-readable text.
	Detail string `json:"detail"`
}
