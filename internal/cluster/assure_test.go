package cluster

import (
	"encoding/json"
	"net/http"
	"slices"
	"testing"
)

// getAssure decodes one GET of a /v1/assure route into out.
func getAssure(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// TestAssureFanOutNamesUnreachedMembers: with one member of three
// stopped, /v1/assure and /v1/assure?job= name it in missing rather than
// passing the reached members' sum off as the cluster's.
func TestAssureFanOutNamesUnreachedMembers(t *testing.T) {
	tc := newTestCluster(t, 3, 1, 8, 100000, 50)
	loc := tc.Members[0].Locations[0]
	if status, verdict := admitVerdict(t, tc.Members[0].URL, pinnedJob(t, "kept-here", loc, 100000)); status != http.StatusOK || !verdict.Admit {
		t.Fatalf("admit: status %d, %+v", status, verdict)
	}

	var all ClusterAssureResponse
	getAssure(t, tc.Members[0].URL+"/v1/assure", &all)
	if len(all.Missing) != 0 || len(all.Nodes) != 3 || all.Totals.Active != 1 {
		t.Fatalf("healthy fan-out: missing %v, %d nodes, %d active", all.Missing, len(all.Nodes), all.Totals.Active)
	}

	victim := tc.Members[2].ID
	if err := tc.Members[2].Kill(); err != nil {
		t.Fatal(err)
	}
	all = ClusterAssureResponse{}
	getAssure(t, tc.Members[0].URL+"/v1/assure", &all)
	if !slices.Equal(all.Missing, []string{victim}) {
		t.Fatalf("totals: missing = %v, want [%s]", all.Missing, victim)
	}
	if _, ok := all.Nodes[victim]; ok || len(all.Nodes) != 2 || all.Totals.Active != 1 {
		t.Fatalf("totals: %d nodes (victim reported: %v), %d active", len(all.Nodes), ok, all.Totals.Active)
	}

	var one ClusterAssureJobResponse
	getAssure(t, tc.Members[1].URL+"/v1/assure?job=kept-here", &one)
	if !slices.Equal(one.Missing, []string{victim}) {
		t.Fatalf("?job=: missing = %v, want [%s]", one.Missing, victim)
	}
	if !one.Found {
		t.Fatal("?job=: the reached owner's promise was not found")
	}
}
