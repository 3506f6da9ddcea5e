package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/resource"
)

// tryPost is post without the t.Fatal on transport errors — for
// requests issued from goroutines while the target is being killed,
// where a severed connection is an expected outcome.
func tryPost(url string, v any) (int, []byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, data, nil
}

// parkSteward installs a gate on node i that parks the choreography the
// first time it reaches stage, and returns (parked, release): parked is
// closed once the steward is paused inside the stage, release un-parks
// it (also registered as a cleanup so the goroutine never leaks).
func parkSteward(t *testing.T, tc *testCluster, i int, stage string) (<-chan struct{}, func()) {
	t.Helper()
	parked := make(chan struct{})
	release := make(chan struct{})
	var parkOnce, releaseOnce sync.Once
	tc.nodes[i].SetGate(func(st, key string) {
		if st == stage {
			parkOnce.Do(func() { close(parked) })
			<-release
		}
	})
	rel := func() { releaseOnce.Do(func() { close(release) }) }
	t.Cleanup(rel)
	return parked, rel
}

// intentHeard reports whether node holds an open intent journaled by
// steward — the gossip having delivered the plan a repair would need.
func intentHeard(nd *Node, steward string) bool {
	return nd.intentFor(steward) != nil
}

// TestStewardDeathMidJoin kills the join steward at each choreography
// stage and asserts the survivors repair the journaled plan under
// automatic failure detection: the dead steward is evicted, the join it
// was conducting still completes, the pinned location ends up exactly
// where the probe-based repair says the data actually got to, and the
// committed reservation seeded there is neither lost nor duplicated.
func TestStewardDeathMidJoin(t *testing.T) {
	// Handoff groups run sorted by source, so the steward's own
	// rebalance group (from n1) executes before the pinned move from n2:
	// at the first join.handoff fire the joiner holds n1's former
	// locations but not yet the pin.
	cases := []struct {
		stage   string
		moved   bool // must the pinned location end up on the joiner?
		partial bool // must the joiner own the first (rebalance) group?
	}{
		{"join.announced", false, false}, // plan journaled, nothing moved
		{"join.moving", false, false},    // checkpointed, still nothing moved
		{"join.handoff", false, true},    // first group landed, pin did not
		{"join.committing", true, true},  // all handoffs done, not committed
	}
	for _, tt := range cases {
		t.Run(tt.stage, func(t *testing.T) {
			tc := newHealthCluster(t, 3, 2, nil)
			waitDetectorWarm(t, tc.nodes, []string{"n1", "n2", "n3"}, 10*time.Second)

			// A committed reservation on the location the join pins: it
			// must survive the steward's death no matter how far the
			// handoff got. The pin belongs to survivor n2, so the move is
			// a steward-ordered RPC handoff that can outlive the steward.
			pin := tc.peers[1].Locations[0]
			job := pinnedJob(t, "steward-death-seed", pin, 5000)
			if status, body := post(t, tc.urls[0]+"/v1/admit", job, nil); status != http.StatusOK {
				t.Fatalf("seeding %s: %d: %s", pin, status, body)
			}

			joiner, _ := newJoiner(t, "n4")
			parked, _ := parkSteward(t, tc, 0, tt.stage)
			joinDone := make(chan error, 1)
			go func() {
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				defer cancel()
				joinDone <- joiner.JoinCluster(ctx, tc.urls[0], []resource.Location{pin})
			}()
			select {
			case <-parked:
			case err := <-joinDone:
				t.Fatalf("join finished before reaching %s: %v", tt.stage, err)
			case <-time.After(10 * time.Second):
				t.Fatalf("steward never reached %s", tt.stage)
			}

			// The survivors must hold the journaled plan before the crash
			// — that gossip is exactly what makes the death repairable.
			waitFor(t, 5*time.Second, "intent gossiped to survivors", func() bool {
				return intentHeard(tc.nodes[1], "n1") && intentHeard(tc.nodes[2], "n1")
			})

			tc.kill(t, 0) // true silence mid-choreography
			<-joinDone    // severed or repaired; either is fine

			survivors := []*Node{tc.nodes[1], tc.nodes[2]}
			waitGone(t, survivors, "n1", 30*time.Second)

			// Repair must complete the join: the joiner is a member of a
			// converged table on every live node, dead steward excluded,
			// and the pin sits with whoever actually holds the data.
			live := append(append([]*Node{}, survivors...), joiner)
			wantOwner := "n2"
			if tt.moved {
				wantOwner = "n4"
			}
			waitFor(t, 30*time.Second, "joiner in every live table", func() bool {
				var epoch uint64
				for i, nd := range live {
					tbl := nd.Table()
					if _, ok := tbl.Member("n4"); !ok {
						return false
					}
					if _, ok := tbl.Member("n1"); ok {
						return false
					}
					if owner, ok := tbl.OwnerOf(pin); !ok || owner != wantOwner {
						return false
					}
					if i == 0 {
						epoch = tbl.Epoch
					} else if tbl.Epoch != epoch {
						return false
					}
				}
				return true
			})

			var repairs uint64
			for _, nd := range survivors {
				repairs += nd.Stats().Cluster.IntentRepairs
			}
			if repairs < 1 {
				t.Fatal("no intent repairs recorded; the join completed some other way")
			}
			if homes := commitmentHome(live, "steward-death-seed"); homes != 1 {
				t.Fatalf("seed lives on %d ledgers after repair, want exactly 1", homes)
			}
			if tt.moved {
				if _, ok := joiner.Server().Ledger().Commitment("steward-death-seed"); !ok {
					t.Fatal("seed did not travel with the completed handoff to the joiner")
				}
			}
			if tt.partial {
				// The handoffs that finished before the crash must be
				// committed by the repair, not rolled back.
				if owned := tc.nodes[1].Table().Locations("n4"); len(owned) == 0 {
					t.Fatal("completed handoffs were not committed: the joiner owns nothing")
				}
			}
			for _, nd := range live {
				if err := nd.Server().Ledger().Audit(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestStewardDeathMidLeave kills the steward of a graceful leave after
// the plan was journaled but before any handoff: the survivor must
// force-complete the departure (promoting from the gossip-fed shadow),
// evict the dead steward, and the still-alive victim — fenced out by a
// table that no longer lists it — must rejoin entirely on its own.
func TestStewardDeathMidLeave(t *testing.T) {
	tc := newHealthCluster(t, 3, 2, nil)
	waitDetectorWarm(t, tc.nodes, []string{"n1", "n2", "n3"}, 10*time.Second)

	// Pick a victim location whose standby is the surviving non-steward
	// n2: the repair promotes from shadows, and a shadow on the node
	// about to be killed proves nothing.
	var vloc resource.Location
	for _, loc := range tc.peers[2].Locations {
		if tc.nodes[0].Table().StandbyOf(loc) == "n2" {
			vloc = loc
			break
		}
	}
	if vloc == "" {
		t.Skipf("no location of n3 has n2 as standby under this rendezvous layout")
	}
	job := pinnedJob(t, "leave-seed", vloc, 5000)
	if status, body := post(t, tc.urls[0]+"/v1/admit", job, nil); status != http.StatusOK {
		t.Fatalf("seeding %s: %d: %s", vloc, status, body)
	}
	waitFor(t, 5*time.Second, "standby shadow warm", func() bool {
		cms, _, ok := tc.nodes[1].ShadowFor(vloc)
		return ok && cms >= 1
	})

	parked, _ := parkSteward(t, tc, 0, "leave.announced")
	leaveDone := make(chan int, 1)
	go func() {
		status, _, _ := tryPost(tc.urls[0]+"/v1/cluster/leave", map[string]any{"id": "n3"})
		leaveDone <- status
	}()
	select {
	case <-parked:
	case status := <-leaveDone:
		t.Fatalf("leave finished before the announce stage: %d", status)
	case <-time.After(10 * time.Second):
		t.Fatal("steward never reached leave.announced")
	}
	waitFor(t, 5*time.Second, "intent gossiped to the survivor", func() bool {
		return intentHeard(tc.nodes[1], "n1")
	})
	tc.kill(t, 0)
	<-leaveDone // severed; the repair finishes the leave without it

	// The survivor must evict the dead steward and finish its journaled
	// leave; the fenced victim must then rejoin automatically.
	waitGone(t, []*Node{tc.nodes[1]}, "n1", 30*time.Second)
	waitFor(t, 30*time.Second, "fenced victim rejoined", func() bool {
		if tc.nodes[2].Stats().Cluster.Rejoins < 1 {
			return false
		}
		t2, t3 := tc.nodes[1].Table(), tc.nodes[2].Table()
		_, ok2 := t2.Member("n3")
		_, ok3 := t3.Member("n3")
		return ok2 && ok3 && t2.Epoch == t3.Epoch
	})
	if repairs := tc.nodes[1].Stats().Cluster.IntentRepairs; repairs < 1 {
		t.Fatalf("survivor recorded %d intent repairs, want >= 1", repairs)
	}
	// The committed reservation survived the forced completion on the
	// promoted standby — and only there (the rejoined victim dropped its
	// fenced copy).
	live := []*Node{tc.nodes[1], tc.nodes[2]}
	waitFor(t, 10*time.Second, "seed on exactly one ledger", func() bool {
		return commitmentHome(live, "leave-seed") == 1
	})
	for _, nd := range live {
		if err := nd.Server().Ledger().Audit(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLeaveQueuesBehindJoin: a graceful leave arriving while a join
// holds the steward semaphore must queue and then run, not fail.
func TestLeaveQueuesBehindJoin(t *testing.T) {
	tc := newHealthCluster(t, 3, 2, nil)

	joiner, _ := newJoiner(t, "n4")
	parked, release := parkSteward(t, tc, 0, "join.announced")
	joinDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		joinDone <- joiner.JoinCluster(ctx, tc.urls[0], nil)
	}()
	select {
	case <-parked:
	case <-time.After(10 * time.Second):
		t.Fatal("steward never reached join.announced")
	}

	// The leave queues on the semaphore while the join is parked...
	leaveDone := make(chan int, 1)
	go func() {
		status, _, _ := tryPost(tc.urls[0]+"/v1/cluster/leave", map[string]any{"id": "n3"})
		leaveDone <- status
	}()
	select {
	case status := <-leaveDone:
		t.Fatalf("leave returned %d while the join still held the steward", status)
	case <-time.After(300 * time.Millisecond):
	}

	// ...and runs to completion once the join releases it.
	release()
	if err := <-joinDone; err != nil {
		t.Fatalf("join: %v", err)
	}
	if status := <-leaveDone; status != http.StatusOK {
		t.Fatalf("queued leave returned %d, want 200", status)
	}
	waitFor(t, 10*time.Second, "table reflects both changes", func() bool {
		tbl := tc.nodes[0].Table()
		_, joined := tbl.Member("n4")
		_, left := tbl.Member("n3")
		return joined && !left
	})
}

// TestGracefulLeaveStaysOut: a live member that gracefully left is
// still running and gossiping. The survivors fence its gossip, and the
// table that dropped it is its own departure, not an eviction: it must
// not fence-and-rejoin its way back into any survivor's table.
func TestGracefulLeaveStaysOut(t *testing.T) {
	tc := newHealthCluster(t, 3, 2, nil)
	if status, body := post(t, tc.urls[0]+"/v1/cluster/leave", map[string]any{"id": "n3"}, nil); status != http.StatusOK {
		t.Fatalf("graceful leave of n3 returned %d: %s", status, body)
	}
	for deadline := time.Now().Add(3 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		for i, nd := range tc.nodes[:2] {
			if tbl := nd.Table(); tbl.Epoch > 1 {
				if _, listed := tbl.Member("n3"); listed {
					t.Fatalf("n%d's table lists n3 at epoch %d after its graceful leave", i+1, tbl.Epoch)
				}
			}
		}
		if rejoins := tc.nodes[2].Stats().Cluster.Rejoins; rejoins != 0 {
			t.Fatalf("n3 rejoined %d times after its graceful leave, want 0", rejoins)
		}
	}
}

// TestLeaveBoundedWaitBehindStuckJoin: when the steward stays busy past
// the configured bound, the queued leave must fail with a clear
// "steward busy" error rather than hanging.
func TestLeaveBoundedWaitBehindStuckJoin(t *testing.T) {
	tc := newHealthCluster(t, 3, 2, func(i int, c *Config) {
		c.StewardWait = 150 * time.Millisecond
	})

	joiner, _ := newJoiner(t, "n4")
	parked, release := parkSteward(t, tc, 0, "join.announced")
	joinDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		joinDone <- joiner.JoinCluster(ctx, tc.urls[0], nil)
	}()
	select {
	case <-parked:
	case <-time.After(10 * time.Second):
		t.Fatal("steward never reached join.announced")
	}

	status, body := post(t, tc.urls[0]+"/v1/cluster/leave", map[string]any{"id": "n3"}, nil)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("leave behind a stuck join returned %d, want 503: %s", status, body)
	}
	if !strings.Contains(string(body), "steward busy") {
		t.Fatalf("leave error should name the busy steward, got: %s", body)
	}

	release()
	if err := <-joinDone; err != nil {
		t.Fatalf("join: %v", err)
	}
}
