package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/interval"
	"repro/internal/workload"
)

// statsOf fetches a node's /v1/stats over HTTP.
func statsOf(t testing.TB, url string) NodeStats {
	t.Helper()
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st NodeStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// parkAtPrepared gates nd's coordinations between their prepare and
// commit rounds: entered receives each parked key, and closing the
// returned channel lets them all go on.
func parkAtPrepared(nd *Node) (entered chan string, release chan struct{}) {
	entered, release = make(chan string, 4), make(chan struct{})
	nd.gate = func(stage, key string) {
		if stage == "prepared" {
			entered <- key
			<-release
		}
	}
	return entered, release
}

// admitAsync posts job to url's /v1/admit on its own goroutine and
// delivers the answer's status, or 0 after reporting a transport error.
func admitAsync(t testing.TB, url string, job workload.Job) <-chan int {
	t.Helper()
	body, err := json.Marshal(job)
	if err != nil {
		t.Fatal(err)
	}
	status := make(chan int, 1)
	go func() {
		resp, err := http.Post(url+"/v1/admit", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			status <- 0
			return
		}
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	return status
}

func awaitParked(t testing.TB, entered chan string) {
	t.Helper()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("coordination never reached the prepared stage")
	}
}

// noHoldsAnywhere checks that a coordination which answered without a
// verdict left nothing behind on any node.
func noHoldsAnywhere(t testing.TB, tc *Fleet) {
	t.Helper()
	for _, nd := range tc.Nodes() {
		if holds := nd.Server().Ledger().NumHolds(); holds != 0 {
			t.Errorf("node %s kept %d holds", nd.ID(), holds)
		}
		if comms := nd.Server().Ledger().NumCommitments(); comms != 0 {
			t.Errorf("node %s kept %d commitments", nd.ID(), comms)
		}
	}
	auditAll(t, tc, "after the timed-out coordination")
}

// TestCoordinatedAdmitIsADecision: federated admits and rejects count
// in the coordinator's decisions, like local ones.
func TestCoordinatedAdmitIsADecision(t *testing.T) {
	tc := newTestCluster(t, 2, 1, 4, 1000, 50)
	a, b := tc.Members[0].Locations[0], tc.Members[1].Locations[0]
	// Two evaluations of 8 cpu at 4 cpu/tick fit a deadline of 1000 but
	// not one of 1.
	deadlines := []interval.Time{1000, 1000, 1000, 1, 1}
	var admitted, rejected uint64
	for i, d := range deadlines {
		status, v := admitVerdict(t, tc.Members[0].URL, spanningJob(t, fmt.Sprintf("dec-%d", i), a, b, d))
		if status != http.StatusOK {
			t.Fatalf("federated admit %d answered %d", i, status)
		}
		if v.Admit {
			admitted++
		} else {
			rejected++
		}
	}
	if admitted == 0 || rejected == 0 {
		t.Fatalf("admitted %d, rejected %d: want both verdicts", admitted, rejected)
	}
	st := statsOf(t, tc.Members[0].URL)
	if st.Cluster.Coordinations != uint64(len(deadlines)) {
		t.Fatalf("coordinations = %d, want %d", st.Cluster.Coordinations, len(deadlines))
	}
	if st.Decisions != uint64(len(deadlines)) || st.Admitted+st.Rejected != st.Decisions ||
		st.Admitted != admitted || st.Rejected != rejected {
		t.Fatalf("coordinator decisions=%d admitted=%d rejected=%d, want %d = %d + %d",
			st.Decisions, st.Admitted, st.Rejected, len(deadlines), admitted, rejected)
	}
}

// TestCoordinatedAdmitTimeout parks a coordination between prepare and
// commit past DecisionTimeout: it must answer 503, count a timeout, and
// give back every hold rather than commit an admit nobody waits for.
func TestCoordinatedAdmitTimeout(t *testing.T) {
	const timeout = 500 * time.Millisecond
	tc := newTestCluster(t, 2, 1, 4, 1000, 50, func(c *Config) { c.Server.DecisionTimeout = timeout })
	entered, release := parkAtPrepared(tc.Members[0].Node)

	statusCh := admitAsync(t, tc.Members[0].URL,
		spanningJob(t, "slow-coord", tc.Members[0].Locations[0], tc.Members[1].Locations[0], 1000))
	awaitParked(t, entered)
	// The decision deadline started before the coordination parked, so
	// it has passed once this much wall-clock time has.
	time.Sleep(timeout + 50*time.Millisecond)
	close(release)
	if status := <-statusCh; status != http.StatusServiceUnavailable {
		t.Fatalf("timed-out coordination answered %d, want 503", status)
	}
	if st := statsOf(t, tc.Members[0].URL); st.TimedOut != 1 || st.Decisions != 0 {
		t.Fatalf("coordinator timed_out=%d decisions=%d, want 1 and 0", st.TimedOut, st.Decisions)
	}
	noHoldsAnywhere(t, tc)
}

// TestCoordinatedAdmitTakesASlot: with one decision slot, a parked
// coordination holds it, so a second admit on the same node queues for
// the slot and times out.
func TestCoordinatedAdmitTakesASlot(t *testing.T) {
	const timeout = 500 * time.Millisecond
	tc := newTestCluster(t, 2, 1, 4, 1000, 50, func(c *Config) {
		c.Server.Workers = 1
		c.Server.DecisionTimeout = timeout
	})
	entered, release := parkAtPrepared(tc.Members[0].Node)

	coordCh := admitAsync(t, tc.Members[0].URL,
		spanningJob(t, "slot-coord", tc.Members[0].Locations[0], tc.Members[1].Locations[0], 1000))
	awaitParked(t, entered)

	localCh := admitAsync(t, tc.Members[0].URL, pinnedJob(t, "slot-local", tc.Members[0].Locations[0], 1000))
	queued := false
	var local int
	for done := false; !done; {
		select {
		case local = <-localCh:
			done = true
		case <-time.After(5 * time.Millisecond):
			queued = queued || statsOf(t, tc.Members[0].URL).QueueDepth >= 1
		}
	}
	close(release)
	if local != http.StatusServiceUnavailable {
		t.Fatalf("admit behind a parked coordination answered %d, want 503", local)
	}
	if !queued {
		t.Fatal("queue_depth never showed the admit waiting for the slot")
	}
	if status := <-coordCh; status != http.StatusServiceUnavailable {
		t.Fatalf("coordination parked past its deadline answered %d, want 503", status)
	}
	noHoldsAnywhere(t, tc)
}

// movableDeadline is a context whose deadline the test sets and which
// is never done: Err() stays nil after the deadline passes, as it is
// between a deadline and the timer that cancels its context.
type movableDeadline struct {
	context.Context
	at atomic.Int64 // unix nanoseconds
}

func (c *movableDeadline) Deadline() (time.Time, bool) { return time.Unix(0, c.at.Load()), true }

// TestCoordinatedLateVerdictReservesNothing parks a coordination between
// prepare and commit and moves its deadline behind the clock there,
// without the context being done. The check before the commit round must
// see the passed deadline: abort every hold and answer 503, never commit
// a verdict reached after its deadline.
func TestCoordinatedLateVerdictReservesNothing(t *testing.T) {
	tc := newTestCluster(t, 2, 1, 4, 1000, 50, func(c *Config) { c.Server.DecisionTimeout = time.Minute })
	ctx := &movableDeadline{Context: context.Background()}
	// Sooner than DecisionTimeout, so the envelope keeps this deadline.
	ctx.at.Store(time.Now().Add(30 * time.Second).UnixNano())
	tc.Members[0].Node.gate = func(stage, key string) {
		if stage == "prepared" {
			ctx.at.Store(time.Now().Add(-time.Millisecond).UnixNano())
		}
	}
	job := spanningJob(t, "late-coord", tc.Members[0].Locations[0], tc.Members[1].Locations[0], 1000)
	body, err := json.Marshal(job)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/admit", bytes.NewReader(body)).WithContext(ctx)
	tc.Members[0].Node.handleAdmit(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("coordination past its deadline answered %d (%s), want 503", rec.Code, rec.Body)
	}
	if st := statsOf(t, tc.Members[0].URL); st.TimedOut != 1 || st.Decisions != 0 {
		t.Fatalf("coordinator timed_out=%d decisions=%d, want 1 and 0", st.TimedOut, st.Decisions)
	}
	for _, nd := range tc.Nodes() {
		if _, ok := nd.Server().Ledger().Commitment(job.Dist.Name); ok {
			t.Errorf("node %s committed a verdict reached after its deadline", nd.ID())
		}
	}
	noHoldsAnywhere(t, tc)
}
