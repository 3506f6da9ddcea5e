package cluster

import (
	"net/http"
	"testing"

	"repro/internal/interval"
	"repro/internal/membership"
	"repro/internal/resource"
	"repro/internal/server"
)

// TestHandoffBeforeGrantRoutesToNewOwner hands a location on before the
// table granting its install arrives: n2 installs a location no table
// assigns, at an epoch beyond its table, then hands it to n3 at the next
// epoch. An admit for that location posted to n2 must be served by n3;
// n2 still resolving it to its own (now empty) ledger would refuse it as
// not owned on every retry and answer 503.
func TestHandoffBeforeGrantRoutesToNewOwner(t *testing.T) {
	tc := newTestCluster(t, 3, 1, 4, 1000, 50, func(c *Config) { c.GossipInterval = -1 })
	const loc = resource.Location("l9")
	var theta resource.Set
	theta.Add(resource.NewTerm(resource.FromUnits(4), resource.CPUAt(loc), interval.New(0, 1000)))
	epoch := tc.Members[1].Node.Table().Epoch

	install := installRequest{Epoch: epoch + 1, Exports: []server.LocationExport{{Loc: loc, Theta: theta.Compact()}}}
	if status, body := post(t, tc.Members[1].URL+"/v1/cluster/install", install, nil); status != http.StatusOK {
		t.Fatalf("install on n2 answered %d %s", status, body)
	}
	handoff := membership.HandoffRequest{Epoch: epoch + 2, Locs: []resource.Location{loc}, To: "n3", ToURL: tc.Members[2].URL}
	if status, body := post(t, tc.Members[1].URL+"/v1/cluster/handoff", handoff, nil); status != http.StatusOK {
		t.Fatalf("handoff n2→n3 answered %d %s", status, body)
	}

	status, v := admitVerdict(t, tc.Members[1].URL, pinnedJob(t, "late", loc, 1000))
	if status != http.StatusOK || !v.Admit {
		t.Fatalf("admit for %s posted to n2 answered %d %+v, want 200 admitted via n3", loc, status, v)
	}
	if _, ok := tc.Members[2].Node.Server().Ledger().Commitment("late"); !ok {
		t.Error("n3 holds no commitment for the admitted job")
	}
	if _, ok := tc.Members[1].Node.Server().Ledger().Commitment("late"); ok {
		t.Error("n2 holds a commitment for a location it handed off")
	}
}
