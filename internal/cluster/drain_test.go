package cluster

import (
	"context"
	"net/http"
	"testing"
	"time"
)

// TestDrainAbortsInflightPrepares pins a coordination between its
// prepare and commit phases with the stage gate, starts a graceful
// shutdown, and then lets the coordination proceed: it must observe the
// drain, abort its prepared holds on every participant (rather than
// leaking them to the lease sweep), and answer 503.
func TestDrainAbortsInflightPrepares(t *testing.T) {
	tc := newTestCluster(t, 2, 1, 4, 1000, 50)

	entered := make(chan string, 1)
	release := make(chan struct{})
	tc.Members[0].Node.gate = func(stage, key string) {
		if stage == "prepared" {
			entered <- key
			<-release
		}
	}

	job := spanningJob(t, "drain-probe", tc.Members[0].Locations[0], tc.Members[1].Locations[0], 1000)
	statusCh := make(chan int, 1)
	go func() {
		status, _ := admitVerdict(t, tc.Members[0].URL, job)
		statusCh <- status
	}()

	// The coordination is now parked after its prepares succeeded.
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("coordination never reached the prepared stage")
	}
	if tc.Members[0].Node.Server().Ledger().NumHolds() != 1 || tc.Members[1].Node.Server().Ledger().NumHolds() != 1 {
		t.Fatalf("holds before drain: n1=%d n2=%d, want 1 and 1",
			tc.Members[0].Node.Server().Ledger().NumHolds(), tc.Members[1].Node.Server().Ledger().NumHolds())
	}

	// Start the graceful shutdown; it must block on the in-flight
	// coordination rather than cutting it off.
	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- tc.Members[0].Node.Shutdown(ctx)
	}()
	waitUntil := time.Now().Add(5 * time.Second)
	for !tc.Members[0].Node.draining() {
		if time.Now().After(waitUntil) {
			t.Fatal("shutdown never flipped the node to draining")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Un-park the coordination: it must abort, not commit.
	close(release)
	select {
	case status := <-statusCh:
		if status != http.StatusServiceUnavailable {
			t.Fatalf("drained coordination returned %d, want 503", status)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("coordination never finished")
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// No leaked holds anywhere — the prepares were aborted explicitly,
	// not left to the lease sweep.
	for _, nd := range tc.Nodes() {
		if holds := nd.Server().Ledger().NumHolds(); holds != 0 {
			t.Fatalf("node %s leaked %d holds through the drain", nd.ID(), holds)
		}
		if nd.Server().Ledger().NumCommitments() != 0 {
			t.Fatalf("node %s committed a drained admission", nd.ID())
		}
	}
	if aborts := tc.Members[1].Node.Server().Ledger().TwoPhase().Aborts; aborts < 1 {
		t.Fatalf("participant recorded %d aborts, want >= 1", aborts)
	}
	auditAll(t, tc, "after drain")

	// A drained node refuses new admissions outright.
	status, _ := post(t, tc.Members[0].URL+"/v1/admit", job, nil)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("admit on drained node returned %d, want 503", status)
	}
}
