package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	neturl "net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/interval"
	"repro/internal/membership"
	"repro/internal/query"
	"repro/internal/resource"
	"repro/internal/server"
)

// TestJoinMovesOwnershipWithoutLosingReservations: a new member joins a
// loaded 2-node cluster with explicit pins spanning both incumbents.
// Every committed reservation on the pinned locations must survive the
// handoffs, the epoch must advance everywhere, and admissions for the
// moved locations must land on the joiner afterwards.
func TestJoinMovesOwnershipWithoutLosingReservations(t *testing.T) {
	tc := newTestCluster(t, 2, 2, 8, 100000, 50)
	// n1 owns l1,l2; n2 owns l3,l4. Commit one job per location.
	jobs := map[string]resource.Location{}
	for i, loc := range []resource.Location{"l1", "l2", "l3", "l4"} {
		name := fmt.Sprintf("pre-join-%d", i)
		status, verdict := admitVerdict(t, tc.Members[i/2].URL, pinnedJob(t, name, loc, 100000))
		if status != http.StatusOK || !verdict.Admit {
			t.Fatalf("seeding %s on %s: status %d, verdict %+v", name, loc, status, verdict)
		}
		jobs[name] = loc
	}

	// Pins span both incumbents: l2 is handed off by the steward itself,
	// l3 by a steward-ordered RPC handoff on n2.
	jm, err := tc.Join("n3", tc.Members[0].URL, []resource.Location{"l2", "l3"})
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	joiner, all := jm.Node, tc.Nodes()
	for _, nd := range all {
		tbl := nd.Table()
		if tbl.Epoch < 2 {
			t.Fatalf("%s still routes by epoch %d", nd.ID(), tbl.Epoch)
		}
		for _, loc := range []resource.Location{"l2", "l3"} {
			if owner, ok := tbl.OwnerOf(loc); !ok || owner != "n3" {
				t.Fatalf("%s's table says %s owns %s, want n3", nd.ID(), owner, loc)
			}
		}
	}
	// Zero lost committed reservations: every pre-join job lives on
	// exactly one node, and the pinned ones moved to the joiner.
	for name, loc := range jobs {
		if homes := Homes(all, name); homes != 1 {
			t.Fatalf("%s (on %s) lives on %d nodes after the join, want exactly 1", name, loc, homes)
		}
	}
	for _, name := range []string{"pre-join-1", "pre-join-2"} { // l2, l3
		if _, ok := joiner.Server().Ledger().Commitment(name); !ok {
			t.Fatalf("%s did not move to the joiner with its location", name)
		}
	}
	for i, nd := range all {
		if err := nd.Server().Ledger().Audit(); err != nil {
			t.Fatalf("node %d audit after join: %v", i, err)
		}
	}

	// New load on a moved location routes to the joiner — submitted via an
	// incumbent, which forwards (following any redirect) to n3.
	status, verdict := admitVerdict(t, tc.Members[1].URL, pinnedJob(t, "post-join", "l2", 100000))
	if status != http.StatusOK || !verdict.Admit {
		t.Fatalf("post-join admit: status %d, verdict %+v", status, verdict)
	}
	if _, ok := joiner.Server().Ledger().Commitment("post-join"); !ok {
		t.Fatal("post-join commitment did not land on the new owner")
	}
	// Cluster-wide release reaches the joiner too.
	if status, _ := post(t, tc.Members[0].URL+"/v1/release", map[string]string{"name": "pre-join-1"}, nil); status != http.StatusOK {
		t.Fatalf("releasing a moved commitment returned %d", status)
	}
	if _, ok := joiner.Server().Ledger().Commitment("pre-join-1"); ok {
		t.Fatal("release did not reach the moved commitment")
	}
}

// TestConcurrentAdmissionsDuringHandoff hammers every location with
// admissions while a join rebalances ownership mid-flight. Run under
// -race this doubles as the ownership-table/handoff data-race test.
// Every request must end in a clean verdict (transient redirects are
// retried internally), and every admitted job must live on exactly one
// ledger afterwards — nothing lost, nothing duplicated.
func TestConcurrentAdmissionsDuringHandoff(t *testing.T) {
	tc := newTestCluster(t, 2, 2, 64, 100000, 50)
	locs := []resource.Location{"l1", "l2", "l3", "l4"}
	urls := tc.URLs() // the incumbents: the joiner is no target

	var admitted sync.Map
	var wg sync.WaitGroup
	const clients, perClient = 4, 25
	start := make(chan struct{})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			for i := 0; i < perClient; i++ {
				name := fmt.Sprintf("churn-%d-%d", c, i)
				job := pinnedJob(t, name, locs[(c+i)%len(locs)], 100000)
				status, verdict := admitVerdict(t, urls[(c+i)%len(urls)], job)
				if status != http.StatusOK {
					t.Errorf("admit %s returned %d mid-handoff", name, status)
					return
				}
				if verdict.Admit {
					admitted.Store(name, true)
				}
			}
		}(c)
	}

	close(start)
	jm, err := tc.Join("n3", tc.Members[0].URL, []resource.Location{"l1", "l3"})
	if err != nil {
		t.Fatalf("join under load: %v", err)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	all := tc.Nodes()
	count := 0
	admitted.Range(func(k, _ any) bool {
		count++
		if homes := Homes(all, k.(string)); homes != 1 {
			t.Errorf("%s lives on %d ledgers, want exactly 1", k, homes)
		}
		return true
	})
	if count == 0 {
		t.Fatal("nothing admitted during the handoff window")
	}
	for _, nd := range all {
		if err := nd.Server().Ledger().Audit(); err != nil {
			t.Fatalf("%s audit after join under load: %v", nd.ID(), err)
		}
	}
	if jm.Node.Table().Epoch < 2 {
		t.Fatalf("join did not advance the epoch: %d", jm.Node.Table().Epoch)
	}
}

// TestForceLeavePromotesStandby kills a primary and force-leaves it:
// the rendezvous standby must promote from its gossip-fed shadow with
// the committed reservation intact, and the cluster must keep admitting
// on the moved location.
func TestForceLeavePromotesStandby(t *testing.T) {
	tc := newTestCluster(t, 3, 1, 8, 100000, 50)
	// Pick n2 (owns l2) as the victim; its standby is the rendezvous
	// runner-up, exactly where LeaveMoves will send l2.
	victim := 1
	loc := tc.Members[victim].Locations[0]
	standby := standbyOf(t, tc, loc).Node
	survivor := tc.Members[0].URL

	status, verdict := admitVerdict(t, tc.Members[victim].URL, pinnedJob(t, "survives-crash", loc, 100000))
	if status != http.StatusOK || !verdict.Admit {
		t.Fatalf("seeding the victim: status %d, verdict %+v", status, verdict)
	}
	waitShadow(t, standby, loc)

	// Crash the primary: no graceful handoff possible.
	if err := tc.Members[victim].Kill(); err != nil {
		t.Fatal(err)
	}
	if status, body := post(t, survivor+"/v1/cluster/leave", map[string]any{"id": tc.Members[victim].ID, "force": true}, nil); status != http.StatusOK {
		t.Fatalf("force leave returned %d: %s", status, body)
	}

	if _, ok := standby.Server().Ledger().Commitment("survives-crash"); !ok {
		t.Fatal("committed reservation lost in the failover")
	}
	if owner, ok := standby.Table().OwnerOf(loc); !ok || owner != standby.ID() {
		t.Fatalf("%s owned by %s after failover, want %s", loc, owner, standby.ID())
	}
	if _, ok := standby.Table().Member(tc.Members[victim].ID); ok {
		t.Fatal("dead member still in the table")
	}
	if err := standby.Server().Ledger().Audit(); err != nil {
		t.Fatalf("standby audit after promotion: %v", err)
	}
	if got := standby.Stats().Cluster.Promotions; got != 1 {
		t.Fatalf("standby promotions = %d, want 1", got)
	}

	// The cluster keeps admitting on the failed-over location.
	status, verdict = admitVerdict(t, survivor, pinnedJob(t, "post-failover", loc, 100000))
	if status != http.StatusOK || !verdict.Admit {
		t.Fatalf("post-failover admit: status %d, verdict %+v", status, verdict)
	}
	if _, ok := standby.Server().Ledger().Commitment("post-failover"); !ok {
		t.Fatal("post-failover commitment missed the promoted standby")
	}
}

// sseWatch is a minimal /v1/watch client for membership tests.
type sseWatch struct {
	resp   *http.Response
	events chan query.Event
}

func openSSEWatch(t *testing.T, baseURL, q string) *sseWatch {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, baseURL+"/v1/watch?q="+neturl.QueryEscape(q), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("watch returned %d", resp.StatusCode)
	}
	w := &sseWatch{resp: resp, events: make(chan query.Event, 16)}
	t.Cleanup(func() { resp.Body.Close() })
	go func() {
		defer close(w.events)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var ev query.Event
			if json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev) == nil {
				w.events <- ev
			}
		}
	}()
	return w
}

func (w *sseWatch) next(t *testing.T, timeout time.Duration) query.Event {
	t.Helper()
	select {
	case ev, ok := <-w.events:
		if !ok {
			t.Fatal("watch stream closed")
		}
		return ev
	case <-time.After(timeout):
		t.Fatal("no watch event in time")
	}
	return query.Event{}
}

// TestWatchStaysCorrectAcrossOwnershipMove is the regression test for
// the static-ownership bug in the query fan-out: a standing watch whose
// footprint location changes owners mid-subscription must keep
// delivering correct verdicts, resolved through the live table.
func TestWatchStaysCorrectAcrossOwnershipMove(t *testing.T) {
	tc := newTestCluster(t, 2, 1, 8, 100000, 50)
	// Watch l2 (owned by n2) from n1: remote footprint, fan-out evaluator.
	// Window (now, now+1): exactly the tick the one-shot filler below
	// reserves, so its admission flips the verdict and its release flips
	// it back. (A wider window would stay satisfiable around the filler.)
	q := fmt.Sprintf("holds(%s, cpu>=8, next 1)", tc.Members[1].Locations[0])
	w := openSSEWatch(t, tc.Members[0].URL, q)
	if ev := w.next(t, 5*time.Second); !ev.Holds {
		t.Fatalf("initial verdict holds=false, want true (l2 is free): %+v", ev)
	}

	// Move l2 to a fresh joiner. The watch's footprint now lives on a
	// node that did not exist when it subscribed.
	loc := tc.Members[1].Locations[0]
	jm, err := tc.Join("n3", tc.Members[0].URL, []resource.Location{loc})
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	joiner := jm.Node
	if owner, _ := tc.Members[0].Node.Table().OwnerOf(loc); owner != "n3" {
		t.Fatalf("%s owned by %s, want n3", loc, owner)
	}

	// Fill the moved location via the OLD owner's URL — the admission is
	// redirected to the joiner, whose ledger change must flip the watch
	// on n1 (delivered by the gossip-driven re-evaluation).
	status, verdict := admitVerdict(t, tc.Members[1].URL, pinnedJob(t, "filler", loc, 100000))
	if status != http.StatusOK || !verdict.Admit {
		t.Fatalf("filler admit: status %d, verdict %+v", status, verdict)
	}
	if _, ok := joiner.Server().Ledger().Commitment("filler"); !ok {
		t.Fatal("filler did not land on the new owner")
	}
	flipped := false
	deadline := time.Now().Add(10 * time.Second)
	for !flipped && time.Now().Before(deadline) {
		ev := w.next(t, 10*time.Second)
		if !ev.Holds {
			flipped = true
		}
	}
	if !flipped {
		t.Fatal("watch never saw the post-move admission")
	}
	// One-shot fan-out from n1 agrees, resolved through the live table.
	resp, err := http.Get(tc.Members[0].URL + "/v1/query?q=" + neturl.QueryEscape(q))
	if err != nil {
		t.Fatal(err)
	}
	var qr server.QueryResponse
	err = json.NewDecoder(resp.Body).Decode(&qr)
	resp.Body.Close()
	if err != nil || qr.Holds {
		t.Fatalf("one-shot verdict after move: holds=%v err=%v, want false", qr.Holds, err)
	}

	// Releasing the filler flips the watch back.
	if status, _ := post(t, tc.Members[0].URL+"/v1/release", map[string]string{"name": "filler"}, nil); status != http.StatusOK {
		t.Fatalf("release returned %d", status)
	}
	for {
		ev := w.next(t, 10*time.Second)
		if ev.Holds {
			break
		}
	}
}

// TestGracefulLeaveHandsOffEverything: a member leaves politely; its
// locations and live commitments must move to the rendezvous successors
// before the table drops it.
func TestGracefulLeaveHandsOffEverything(t *testing.T) {
	tc := newTestCluster(t, 3, 1, 8, 100000, 50)
	loc := tc.Members[2].Locations[0]
	status, verdict := admitVerdict(t, tc.Members[2].URL, pinnedJob(t, "moves-out", loc, 100000))
	if status != http.StatusOK || !verdict.Admit {
		t.Fatalf("seed: status %d, verdict %+v", status, verdict)
	}

	status, data := post(t, tc.Members[0].URL+"/v1/cluster/leave", map[string]any{"id": "n3"}, nil)
	if status != http.StatusOK {
		t.Fatalf("graceful leave returned %d: %s", status, data)
	}
	tbl := tc.Members[0].Node.Table()
	if _, ok := tbl.Member("n3"); ok {
		t.Fatal("left member still in the table")
	}
	newOwner, ok := tbl.OwnerOf(loc)
	if !ok || newOwner == "n3" {
		t.Fatalf("%s owned by %q after leave", loc, newOwner)
	}
	if homes := Homes(tc.Nodes()[:2], "moves-out"); homes != 1 {
		t.Fatalf("moves-out lives on %d surviving ledgers, want 1", homes)
	}
	// The departed node's ledger no longer owns the location.
	if tc.Members[2].Node.Server().Ledger().NumCommitments() != 0 {
		t.Fatal("departed node still holds the commitment")
	}
	for _, nd := range tc.Nodes()[:2] {
		if err := nd.Server().Ledger().Audit(); err != nil {
			t.Fatalf("%s audit after leave: %v", nd.ID(), err)
		}
	}
	// Last-member and unknown-member guard rails.
	if status, _ := post(t, tc.Members[0].URL+"/v1/cluster/leave", map[string]any{"id": "ghost"}, nil); status != http.StatusNotFound {
		t.Fatalf("unknown member leave: %d, want 404", status)
	}
}

// TestRedirectServedForHandedOffLocation exercises the 421 contract
// directly: after a handoff, the old owner answers the cluster-protocol
// endpoints with a redirect naming the new owner, until the new table
// supersedes the overlay.
func TestRedirectServedForHandedOffLocation(t *testing.T) {
	tc := newTestCluster(t, 2, 1, 8, 100000, 50)
	n1 := tc.Members[0].Node
	loc := tc.Members[0].Locations[0]
	// Execute a raw handoff (no table update): n1 → n2 at a future epoch.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := n1.executeHandoff(ctx, []resource.Location{loc}, "n2", tc.Members[1].URL, n1.Table().Epoch+1); err != nil {
		t.Fatalf("handoff: %v", err)
	}
	resp, err := http.Get(tc.Members[0].URL + "/v1/cluster/free?locs=" + string(loc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("free on handed-off location returned %d, want 421", resp.StatusCode)
	}
	var red struct {
		OwnerID  string `json:"owner_id"`
		OwnerURL string `json:"owner_url"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&red); err != nil {
		t.Fatal(err)
	}
	if red.OwnerID != "n2" || red.OwnerURL != tc.Members[1].URL {
		t.Fatalf("redirect points at %s (%s), want n2 (%s)", red.OwnerID, red.OwnerURL, tc.Members[1].URL)
	}
	if got := n1.Stats().Cluster.RedirectsServed; got == 0 {
		t.Fatal("redirects_served did not count")
	}
	// The new owner must serve the location it was just handed, not
	// bounce the request back: its table still names n1 until the final
	// table lands, and a coordinator sent n1 → n2 → n1 … burns its
	// ownership retries on a location that moved exactly once.
	fresp, err := http.Get(tc.Members[1].URL + "/v1/cluster/free?locs=" + string(loc))
	if err != nil {
		t.Fatal(err)
	}
	fresp.Body.Close()
	if fresp.StatusCode != http.StatusOK {
		t.Fatalf("free on the new owner returned %d before the table caught up, want 200", fresp.StatusCode)
	}
	// An admit submitted to the old owner still succeeds: the forward
	// path follows the redirect to the new owner.
	status, verdict := admitVerdict(t, tc.Members[0].URL, pinnedJob(t, "after-redirect", loc, 100000))
	if status != http.StatusOK || !verdict.Admit {
		t.Fatalf("admit after handoff: status %d, verdict %+v", status, verdict)
	}
	if _, ok := tc.Members[1].Node.Server().Ledger().Commitment("after-redirect"); !ok {
		t.Fatal("redirected admission missed the new owner")
	}
}

// A coordinator rolling a partial commit back sends its abort, with the
// locations it prepared on, to the node it prepared on. When the
// committed slice has since been handed off, that node answers 421
// naming the new owner instead of forwarding, and the coordinator's
// abort follows it: the new owner finds the slice by the key that
// travelled with it, rather than keep it reserved until its plan
// finishes.
func TestAbortFollowsCommittedKeyAcrossHandoff(t *testing.T) {
	tc := newTestCluster(t, 2, 1, 8, 100000, 50)
	n1, n2 := tc.Members[0].Node, tc.Members[1].Node
	loc := tc.Members[0].Locations[0]
	demand := resource.NewSet(resource.NewTerm(resource.FromUnits(1), resource.CPUAt(loc), interval.New(0, 10)))
	if err := n1.Server().Ledger().Prepare("k-partial", "partial", demand, 10, 20, 50); err != nil {
		t.Fatal(err)
	}
	if err := n1.Server().Ledger().Commit("k-partial"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := n1.executeHandoff(ctx, []resource.Location{loc}, "n2", tc.Members[1].URL, n1.Table().Epoch+1); err != nil {
		t.Fatalf("handoff: %v", err)
	}
	if _, ok := n2.Server().Ledger().Commitment("partial"); !ok {
		t.Fatal("the commitment did not move with its location")
	}

	// The old owner redirects; it does not forward.
	finish := server.FinishRequest{Key: "k-partial", Locs: []resource.Location{loc}}
	status, body := post(t, tc.Members[0].URL+"/v1/cluster/abort", finish, nil)
	if status != http.StatusMisdirectedRequest {
		t.Fatalf("abort on the old owner returned %d, want 421: %s", status, body)
	}
	if _, ok := n2.Server().Ledger().Commitment("partial"); !ok {
		t.Fatal("the old owner forwarded the abort")
	}
	// The coordinator (n2 here) follows the redirect.
	old := &participant{ps: n2.peerFor(ownerRef{id: "n1", url: tc.Members[0].URL}), demand: demand}
	if err := n2.finishOn(ctx, old, "k-partial", "abort"); err != nil {
		t.Fatalf("abort via the old owner: %v", err)
	}
	if _, ok := n2.Server().Ledger().Commitment("partial"); ok {
		t.Fatal("the abort never reached the slice on the new owner")
	}
	auditAll(t, tc, "after the redirected abort")
	free, _, err := n2.Server().Ledger().FreeView([]resource.Location{loc})
	if err != nil {
		t.Fatal(err)
	}
	want := resource.NewSet(resource.NewTerm(resource.FromUnits(8), resource.CPUAt(loc), interval.New(0, 100000)))
	if !free.Equal(want) {
		t.Fatalf("free on %s after the abort = %s, want all of %s", loc, free.Compact(), want.Compact())
	}
}

// A location handed on twice, n1 → n2 → n3, before the coordinator
// finishes: a commit sent to n1 by another node and an abort n1
// coordinates itself both reach the slice on n3, one redirect per move.
func TestFinishFollowsLocationMovedTwice(t *testing.T) {
	tc := newTestCluster(t, 3, 1, 8, 100000, 50)
	n1, n2, n3 := tc.Members[0].Node, tc.Members[1].Node, tc.Members[2].Node
	loc := tc.Members[0].Locations[0]
	demand := resource.NewSet(resource.NewTerm(resource.FromUnits(1), resource.CPUAt(loc), interval.New(0, 10)))
	for _, key := range []string{"k-commit", "k-abort"} {
		if err := n1.Server().Ledger().Prepare(key, "twice-"+key, demand, 10, 20, 1000); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	epoch := n1.Table().Epoch
	if err := n1.executeHandoff(ctx, []resource.Location{loc}, "n2", tc.Members[1].URL, epoch+1); err != nil {
		t.Fatalf("handoff to n2: %v", err)
	}
	if err := n2.executeHandoff(ctx, []resource.Location{loc}, "n3", tc.Members[2].URL, epoch+2); err != nil {
		t.Fatalf("handoff to n3: %v", err)
	}
	if got := n3.Server().Ledger().NumHolds(); got != 2 {
		t.Fatalf("n3 carries %d holds after both handoffs, want 2", got)
	}

	// n3 coordinates the commit through n1, the node it prepared on.
	viaN1 := &participant{ps: n3.peerFor(ownerRef{id: "n1", url: tc.Members[0].URL}), demand: demand}
	if err := n3.finishOn(ctx, viaN1, "k-commit", "commit"); err != nil {
		t.Fatalf("commit via n1: %v", err)
	}
	if _, ok := n3.Server().Ledger().Commitment("twice-k-commit"); !ok {
		t.Fatal("the commit did not reach the slice on n3")
	}
	// n1 coordinates the abort of its own slice.
	self := &participant{ps: n1.peerFor(ownerRef{id: "n1"}), demand: demand}
	if err := n1.finishOn(ctx, self, "k-abort", "abort"); err != nil {
		t.Fatalf("abort from n1: %v", err)
	}
	if got := n3.Server().Ledger().NumHolds(); got != 0 {
		t.Fatalf("n3 still carries %d holds, want 0", got)
	}
	auditAll(t, tc, "after finishing across two moves")
	free, _, err := n3.Server().Ledger().FreeView([]resource.Location{loc})
	if err != nil {
		t.Fatal(err)
	}
	want, err := resource.NewSet(resource.NewTerm(resource.FromUnits(8), resource.CPUAt(loc), interval.New(0, 100000))).Subtract(demand)
	if err != nil || !free.Equal(want) {
		t.Fatalf("free on %s = %s, want %s: only the committed slice reserved", loc, free.Compact(), want.Compact())
	}
}

// An old owner that was fenced and rejoined after handing a location
// off has forgotten the move with the rest of its fenced state. A
// commit sent to it with the slice's locations still reaches the new
// owner: the rejoined node routes by the table, which pins the
// location there.
func TestFinishReachesSliceAfterOldOwnerRejoined(t *testing.T) {
	tc := newTestCluster(t, 2, 1, 8, 100000, 50)
	n1, n2 := tc.Members[0].Node, tc.Members[1].Node
	loc := tc.Members[0].Locations[0]
	demand := resource.NewSet(resource.NewTerm(resource.FromUnits(1), resource.CPUAt(loc), interval.New(0, 10)))
	if err := n1.Server().Ledger().Prepare("k-fenced", "fenced", demand, 10, 20, 1000); err != nil {
		t.Fatal(err)
	}
	// n3 joins with loc pinned: n1 hands it off, and no later table
	// takes it back.
	jm, err := tc.Join("n3", tc.Members[0].URL, []resource.Location{loc})
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	n3 := jm.Node
	if got := n3.Server().Ledger().NumHolds(); got != 1 {
		t.Fatalf("n3 carries %d holds after the join, want 1", got)
	}

	// Fence n1: force it out while it is alive. Its gossip is refused,
	// and it rejoins as a blank member.
	if status, body := post(t, tc.Members[1].URL+"/v1/cluster/leave", map[string]any{"id": "n1", "force": true}, nil); status != http.StatusOK {
		t.Fatalf("force leave returned %d: %s", status, body)
	}
	if !WaitFor(15*time.Second, func() bool {
		_, member := n2.Table().Member("n1")
		return member && n1.Stats().Cluster.Rejoins > 0
	}) {
		t.Fatal("n1 never rejoined")
	}
	if owner, ok := n1.Table().OwnerOf(loc); !ok || owner != "n3" {
		t.Fatalf("the rejoined n1 sees %s owned by %q, want n3", loc, owner)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	viaN1 := &participant{ps: n2.peerFor(ownerRef{id: "n1", url: tc.Members[0].URL}), demand: demand}
	if err := n2.finishOn(ctx, viaN1, "k-fenced", "commit"); err != nil {
		t.Fatalf("commit via the rejoined n1: %v", err)
	}
	if _, ok := n3.Server().Ledger().Commitment("fenced"); !ok {
		t.Fatal("the commit did not reach the slice on n3")
	}
	auditAll(t, tc, "after the commit via the rejoined node")
}

// A release fan-out only covers the roster it started with. When a call
// is parked behind a peer's handoff freeze while a member joins and the
// commitment follows its location there, the pass must be repeated
// against the new roster instead of answering 404 for a job that is
// committed on a node it never asked.
func TestReleaseFanOutFollowsRosterChange(t *testing.T) {
	// n1 is a stand-in that parks the forwarded release (as a node
	// frozen mid-handoff would) and then denies holding the job.
	parked := make(chan struct{})
	proceed := make(chan struct{})
	var parkOnce sync.Once
	n1 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/release" {
			writeJSON(w, http.StatusOK, map[string]string{})
			return
		}
		parkOnce.Do(func() { close(parked) })
		<-proceed
		httpError(w, http.StatusNotFound, errors.New("unknown computation"))
	}))
	defer n1.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n2URL := "http://" + ln.Addr().String()
	n2, err := New(Config{
		Self: "n2",
		Peers: []Peer{
			{ID: "n1", URL: n1.URL, Locations: []resource.Location{"l1"}},
			{ID: "n2", URL: n2URL, Locations: []resource.Location{"l2"}},
		},
		Server:         server.Config{Policy: &admission.Rota{}},
		LeaseTTL:       50,
		GossipInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: n2}
	go func() { _ = hs.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = n2.Shutdown(ctx)
		_ = hs.Shutdown(ctx)
	}()

	// n3 carries the commitment, the way a joiner does once a handoff has
	// installed a location on it.
	n3m, err := newTestCluster(t, 0, 0, 0, 0, 50).joiner("n3") // no seeds: a bare joiner
	if err != nil {
		t.Fatal(err)
	}
	n3, n3URL := n3m.Node, n3m.URL
	n3.Server().Ledger().AddOwned([]resource.Location{"l1"})
	if err := n3.Server().Ledger().ImportLocations([]server.LocationExport{{
		Loc:   "l1",
		Theta: "4:cpu@l1:(0,100)",
		Commitments: []server.ExportCommitment{
			{Name: "roamer", Demand: "1:cpu@l1:(0,10)", Finish: 10, Deadline: 20},
		},
	}}); err != nil {
		t.Fatal(err)
	}

	status := make(chan int, 1)
	go func() {
		st, _, err := tryPost(n2URL+"/v1/release", map[string]string{"name": "roamer"})
		if err != nil {
			t.Error(err)
		}
		status <- st
	}()
	<-parked // n2's pass, over the roster {n1, n2}, is now stuck on n1
	if !n2.applyTable(n2.Table().Joined(membership.Member{ID: "n3", URL: n3URL}, nil, nil)) {
		t.Fatal("announce table not applied")
	}
	close(proceed)
	if st := <-status; st != http.StatusOK {
		t.Fatalf("release answered %d, want 200: the job is committed on n3", st)
	}
	if _, ok := n3.Server().Ledger().Commitment("roamer"); ok {
		t.Fatal("roamer still committed on n3 after the release")
	}
}
