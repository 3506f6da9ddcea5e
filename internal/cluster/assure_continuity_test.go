package cluster

import (
	"net/http"
	"testing"

	"repro/internal/obs/assure"
	"repro/internal/resource"
)

// Promise-continuity tests: an admitted job's deadline promise must
// follow the job across ownership moves. On a graceful handoff the old
// owner's view turns transferred and the new owner adopts it; on a
// crash-and-promote the standby adopts from its gossip-fed shadow. In
// neither case may the promise end up orphaned or violated — the
// Theorem-4 witness the job was admitted on is still valid, only the
// node enforcing it changed.

// assureView fetches a node's in-process promise view for one job.
func assureView(t *testing.T, nd *Node, job string) (assure.Promise, bool) {
	t.Helper()
	asr := nd.Server().Assure()
	if asr == nil {
		t.Fatalf("%s has no promise ledger wired", nd.ID())
	}
	return asr.Lookup(job)
}

// requireContinuity asserts the new owner carries the promise forward:
// found, adopted, and in a healthy (active or kept) state.
func requireContinuity(t *testing.T, nd *Node, job string) assure.Promise {
	t.Helper()
	p, ok := assureView(t, nd, job)
	if !ok {
		t.Fatalf("%s has no promise for %s after the move", nd.ID(), job)
	}
	switch p.State {
	case assure.StateActive, assure.StateKept:
	default:
		t.Fatalf("%s reports %s as %q after the move, want active or kept", nd.ID(), job, p.State)
	}
	if !p.Adopted {
		t.Fatalf("%s's promise for %s is not marked adopted", nd.ID(), job)
	}
	return p
}

// TestPromiseContinuityAcrossHandoff: jobs admitted before a join keep
// their promises through the steward-driven handoff. The joiner adopts
// them (never re-observing slack-at-admit), the old owners mark them
// transferred, and nothing is orphaned or violated anywhere.
func TestPromiseContinuityAcrossHandoff(t *testing.T) {
	tc := newTestCluster(t, 2, 2, 8, 100000, 50)
	// The join will move l2 and l3; seed one job on each, looking up the
	// incumbent owner from the partition (PartitionLocations interleaves).
	ownerOf := func(loc resource.Location) int {
		for i, p := range tc.Members {
			for _, l := range p.Locations {
				if l == loc {
					return i
				}
			}
		}
		t.Fatalf("no owner for %s", loc)
		return -1
	}
	moved := map[string]struct {
		owner int
		loc   resource.Location
	}{
		"moves-with-l2": {ownerOf("l2"), "l2"},
		"moves-with-l3": {ownerOf("l3"), "l3"},
	}
	for name, at := range moved {
		status, verdict := admitVerdict(t, tc.Members[at.owner].URL, pinnedJob(t, name, at.loc, 100000))
		if status != http.StatusOK || !verdict.Admit {
			t.Fatalf("seeding %s: status %d, verdict %+v", name, status, verdict)
		}
		if p, ok := assureView(t, tc.Members[at.owner].Node, name); !ok || p.State != assure.StateActive {
			t.Fatalf("no active promise for %s on its owner before the join", name)
		}
	}

	jm, err := tc.Join("n3", tc.Members[0].URL, []resource.Location{"l2", "l3"})
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	joiner := jm.Node

	for name, at := range moved {
		requireContinuity(t, joiner, name)
		// The old owner's disposition is transferred — the job left with
		// its location, it was not lost.
		if old, ok := assureView(t, tc.Members[at.owner].Node, name); !ok || old.State != assure.StateTransferred {
			t.Fatalf("old owner %s reports %s as %q, want transferred", tc.Members[at.owner].ID, name, old.State)
		}
	}
	for _, nd := range tc.Nodes() {
		st := nd.Server().Assure().Stats()
		if st.Violated != 0 || st.Orphaned != 0 {
			t.Fatalf("%s: %d violated, %d orphaned after a clean handoff", nd.ID(), st.Violated, st.Orphaned)
		}
	}
}

// TestPromiseContinuityAcrossPromotion kills a primary mid-window and
// force-leaves it: the promoted standby must adopt the in-flight
// promise from its shadow and report it active or kept — never
// orphaned — and the survivors' ledgers must show zero violations.
func TestPromiseContinuityAcrossPromotion(t *testing.T) {
	tc := newTestCluster(t, 3, 1, 8, 100000, 50)
	victim := 1
	loc := tc.Members[victim].Locations[0]
	standby := standbyOf(t, tc, loc).Node
	survivor := tc.Members[0].URL

	const job = "promise-survives-crash"
	status, verdict := admitVerdict(t, tc.Members[victim].URL, pinnedJob(t, job, loc, 100000))
	if status != http.StatusOK || !verdict.Admit {
		t.Fatalf("seeding the victim: status %d, verdict %+v", status, verdict)
	}
	if p, ok := assureView(t, tc.Members[victim].Node, job); !ok || p.State != assure.StateActive {
		t.Fatalf("victim holds no active promise for %s before the crash", job)
	}

	// Wait for gossip to ship the shadow, then crash the primary
	// mid-window: the deadline is far away, the promise is in flight.
	waitShadow(t, standby, loc)
	if err := tc.Members[victim].Kill(); err != nil {
		t.Fatal(err)
	}
	if status, body := post(t, survivor+"/v1/cluster/leave", map[string]any{"id": tc.Members[victim].ID, "force": true}, nil); status != http.StatusOK {
		t.Fatalf("force leave returned %d: %s", status, body)
	}

	p := requireContinuity(t, standby, job)
	if p.State == assure.StateOrphaned {
		t.Fatalf("promoted standby orphaned the promise: %+v", p)
	}
	for _, nd := range tc.Nodes() {
		st := nd.Server().Assure().Stats()
		if st.Violated != 0 || st.Orphaned != 0 {
			t.Fatalf("%s: %d violated, %d orphaned after the failover", nd.ID(), st.Violated, st.Orphaned)
		}
	}

	// New admissions on the failed-over location land promises on the
	// promoted owner, freshly observed (not adopted).
	status, verdict = admitVerdict(t, survivor, pinnedJob(t, "post-promotion", loc, 100000))
	if status != http.StatusOK || !verdict.Admit {
		t.Fatalf("post-promotion admit: status %d, verdict %+v", status, verdict)
	}
	fresh, ok := assureView(t, standby, "post-promotion")
	if !ok || fresh.State != assure.StateActive || fresh.Adopted {
		t.Fatalf("post-promotion promise = %+v, want a fresh active promise on the standby", fresh)
	}
}
