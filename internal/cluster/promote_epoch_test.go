package cluster

import (
	"net/http"
	"testing"
	"time"

	"repro/internal/resource"
	"repro/internal/server"
)

// TestRemotePromotionCarriesIntentEpoch promotes a standby that is one
// table behind, as a forced leave whose steward already published an
// earlier table does: the promotion names the intent's target epoch, two
// past the standby's table. When the table the standby missed arrives
// late, still naming the victim as owner, it must not roll the promotion
// back. A standby that stamped its own guess (its epoch + 1) would read
// that late table as superseding the promotion and drop the location
// with its committed reservation.
func TestRemotePromotionCarriesIntentEpoch(t *testing.T) {
	tc := newTestCluster(t, 3, 1, 8, 100000, 50)
	victim := 1
	loc := tc.Members[victim].Locations[0]
	sm := standbyOf(t, tc, loc)
	standby, standbyURL := sm.Node, sm.URL

	const job = "promoted-at-intent-epoch"
	status, verdict := admitVerdict(t, tc.Members[victim].URL, pinnedJob(t, job, loc, 100000))
	if status != http.StatusOK || !verdict.Admit {
		t.Fatalf("seeding the victim: status %d, verdict %+v", status, verdict)
	}
	waitShadow(t, standby, loc)

	epoch := standby.Table().Epoch
	promote := promoteRequest{Epoch: epoch + 2, Locs: []resource.Location{loc}}
	if status, body := post(t, standbyURL+"/v1/cluster/promote", promote, nil); status != http.StatusOK {
		t.Fatalf("promote answered %d %s", status, body)
	}
	if _, ok := standby.Server().Ledger().Commitment(job); !ok {
		t.Fatal("promotion did not adopt the shadowed commitment")
	}

	// The table the standby missed: the next epoch, same owners.
	victimMember, _ := standby.Table().Member(tc.Members[victim].ID)
	late := standby.Table().Joined(victimMember, nil, nil)
	if late.Epoch != epoch+1 {
		t.Fatalf("late table at epoch %d, want %d", late.Epoch, epoch+1)
	}
	if owner, _ := late.OwnerOf(loc); owner != tc.Members[victim].ID {
		t.Fatalf("late table names %s owner of %s, want the victim", owner, loc)
	}
	if status, body := post(t, standbyURL+"/v1/cluster/table", late.ToWire(), nil); status != http.StatusOK {
		t.Fatalf("late table answered %d %s", status, body)
	}
	if _, ok := standby.Server().Ledger().Commitment(job); !ok {
		t.Fatal("a table older than the promotion's epoch dropped the promoted commitment")
	}
	if err := standby.Server().Ledger().Audit(); err != nil {
		t.Fatalf("standby audit: %v", err)
	}
}

// TestPromoteAndInstallNeedAnEpoch: every sender names the epoch a
// promotion or install belongs to, so a body without one is refused
// rather than stamped with the receiver's guess.
func TestPromoteAndInstallNeedAnEpoch(t *testing.T) {
	tc := newTestCluster(t, 2, 1, 8, 1000, 50, func(c *Config) { c.GossipInterval = -1 })
	loc := tc.Members[0].Locations[0]
	promote := promoteRequest{Locs: []resource.Location{loc}}
	if status, body := post(t, tc.Members[1].URL+"/v1/cluster/promote", promote, nil); status != http.StatusBadRequest {
		t.Errorf("promote without an epoch answered %d %s, want 400", status, body)
	}
	install := installRequest{Exports: []server.LocationExport{{Loc: "l9"}}}
	if status, body := post(t, tc.Members[1].URL+"/v1/cluster/install", install, nil); status != http.StatusBadRequest {
		t.Errorf("install without an epoch answered %d %s, want 400", status, body)
	}
	for _, owned := range tc.Members[1].Node.Server().Ledger().OwnedLocations() {
		if owned == "l9" {
			t.Error("a refused install adopted its location")
		}
	}
	if got := tc.Members[1].Node.Table().Epoch; got != 1 {
		t.Errorf("epoch moved to %d", got)
	}
}

// standbyOf returns the member that n1's table names loc's standby,
// failing the test unless that is a member other than loc's owner.
func standbyOf(t testing.TB, tc *Fleet, loc resource.Location) *Member {
	t.Helper()
	owner, _ := tc.Members[0].Node.Table().OwnerOf(loc)
	id := tc.Members[0].Node.Table().StandbyOf(loc)
	for _, m := range tc.Members {
		if m.ID == id && id != owner {
			return m
		}
	}
	t.Fatalf("no usable standby for %s: %q", loc, id)
	return nil
}

// waitShadow waits for the gossip tick to ship loc's shadow to standby.
func waitShadow(t testing.TB, standby *Node, loc resource.Location) {
	t.Helper()
	if !WaitFor(5*time.Second, func() bool { _, _, ok := standby.ShadowFor(loc); return ok }) {
		t.Fatalf("no shadow of %s reached standby %s within 5s", loc, standby.ID())
	}
}
