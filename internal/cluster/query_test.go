package cluster

import (
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/server"
)

// TestFanoutResolvesNameWithHash: '#' is legal in both admit names and
// query refs, so a non-owner resolving feasible(batch#7) on its peer must
// ask for batch#7 — not for the decoy batch that an unescaped '#' would
// cut the lookup down to.
func TestFanoutResolvesNameWithHash(t *testing.T) {
	tc := newTestCluster(t, 2, 2, 1, 100, 50)
	owned := tc.peers[1].Locations
	// The decoy fills its location up to its deadline, so re-admitting it
	// cannot fit; batch#7 leaves 42 of 50 units free before its own.
	for _, job := range []struct {
		name     string
		loc      int
		deadline int64
	}{{"batch", 0, 8}, {"batch#7", 1, 50}} {
		if status, resp := admitVerdict(t, tc.urls[1], pinnedJob(t, job.name, owned[job.loc], job.deadline)); status != http.StatusOK || !resp.Admit {
			t.Fatalf("admit %s: status %d, %+v", job.name, status, resp)
		}
	}
	for q, want := range map[string]bool{"feasible(batch#7)": true, "feasible(batch)": false} {
		status, data := post(t, tc.urls[0]+"/v1/query", server.QueryRequest{Query: q}, nil)
		if status != http.StatusOK {
			t.Fatalf("%s on the non-owner: status %d: %s", q, status, data)
		}
		var qr server.QueryResponse
		if err := json.Unmarshal(data, &qr); err != nil {
			t.Fatalf("%s: unparsable response %s: %v", q, data, err)
		}
		if qr.Holds != want {
			t.Errorf("%s on the non-owner = %v, want %v", q, qr.Holds, want)
		}
	}
}
