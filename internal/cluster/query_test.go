package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/interval"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/query"
	"repro/internal/resource"
	"repro/internal/server"
)

// TestFanoutResolvesNameWithHash: '#' is legal in both admit names and
// query refs, so a non-owner resolving feasible(batch#7) on its peer must
// ask for batch#7 — not for the decoy batch that an unescaped '#' would
// cut the lookup down to.
func TestFanoutResolvesNameWithHash(t *testing.T) {
	tc := newTestCluster(t, 2, 2, 1, 100, 50)
	owned := tc.Members[1].Locations
	// The decoy fills its location up to its deadline, so re-admitting it
	// cannot fit; batch#7 leaves 42 of 50 units free before its own.
	for _, job := range []struct {
		name     string
		loc      int
		deadline int64
	}{{"batch", 0, 8}, {"batch#7", 1, 50}} {
		if status, resp := admitVerdict(t, tc.Members[1].URL, pinnedJob(t, job.name, owned[job.loc], job.deadline)); status != http.StatusOK || !resp.Admit {
			t.Fatalf("admit %s: status %d, %+v", job.name, status, resp)
		}
	}
	for q, want := range map[string]bool{"feasible(batch#7)": true, "feasible(batch)": false} {
		status, data := post(t, tc.Members[0].URL+"/v1/query", server.QueryRequest{Query: q}, nil)
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

// clusterQuery posts one query to a node and returns its verdict and
// the trace ID the instrumented handler stamped on the response.
func clusterQuery(t *testing.T, url, q string) (server.QueryResponse, string) {
	t.Helper()
	body, err := json.Marshal(server.QueryRequest{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr server.QueryResponse
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d", q, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	return qr, resp.Header.Get(obs.HeaderTraceID)
}

// TestClusterQueryNameHeldBySeveralOwners: a coordinated job leaves a
// share on each owner, and feasible(j) must read all of them, as one
// ledger over the union Θ does. At one cpu a tick, the job takes 8 units
// at l1 and 16 at l2 before its deadline of 16: l2 has nothing left to
// re-plan its share into, so feasible(j) is false. Read from l1's share
// alone, it was true.
func TestClusterQueryNameHeldBySeveralOwners(t *testing.T) {
	tc := newTestCluster(t, 2, 1, 1, 1000, 50, func(c *Config) { c.GossipInterval = -1 })
	locs := []resource.Location{tc.Members[0].Locations[0], tc.Members[1].Locations[0]}
	job := stepsJob(t, "j", 0, 16, locs, []int{1, 2})
	var theta resource.Set
	for _, loc := range locs {
		theta.Add(resource.NewTerm(resource.FromUnits(1), resource.CPUAt(loc), interval.New(0, 1000)))
	}
	one, err := server.New(server.Config{Theta: theta})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = one.Shutdown(context.Background()) })
	if dec, err := one.Ledger().Admit(&admission.Rota{}, job); err != nil || !dec.Admit {
		t.Fatalf("one ledger: %v %+v", err, dec)
	}
	if status, v := admitVerdict(t, tc.Members[0].URL, job); status != http.StatusOK || !v.Admit {
		t.Fatalf("federation: status %d, %+v", status, v)
	}
	for _, q := range []string{"feasible(j)", fmt.Sprintf("during(j, window(0, 17)) and holds(%s, cpu>=1, next 16)", locs[0])} {
		c, err := query.ParseText(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := one.EvalQuery(c)
		if err != nil {
			t.Fatal(err)
		}
		if q == "feasible(j)" && want.Holds {
			t.Fatal("fixture: one ledger finds room to re-plan j")
		}
		for i, url := range tc.URLs() {
			if got, _ := clusterQuery(t, url, q); got.Holds != want.Holds || got.Formula != want.Formula {
				t.Errorf("%s entered at n%d: holds=%v by %s, one ledger holds=%v by %s",
					q, i+1, got.Holds, got.Formula, want.Holds, want.Formula)
			}
		}
	}
}

// TestClusterQuerySpanTree: a one-shot query spanning two owners leaves
// one connected span tree, query → rpc → the peer's freeview, because
// the query span's context reaches the snapshot hook's fan-out.
func TestClusterQuerySpanTree(t *testing.T) {
	tc := newTestCluster(t, 2, 1, 4, 1000, 50, func(c *Config) { c.GossipInterval = -1 })
	q := fmt.Sprintf("holds(%s, cpu>=1, next 5) and holds(%s, cpu>=1, next 5)",
		tc.Members[0].Locations[0], tc.Members[1].Locations[0])
	qr, trace := clusterQuery(t, tc.Members[0].URL, q)
	if !qr.Holds || trace == "" {
		t.Fatalf("spanning query: holds=%v, trace %q", qr.Holds, trace)
	}
	// Spans are recorded when they end, which may be just after the
	// response went out.
	var tree *span.Tree
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		tree = span.BuildTree(trace, mergeSpans(tc))
		if len(tree.Roots) == 1 && tree.Roots[0].Kind == span.KindQuery || time.Now().After(deadline) {
			break
		}
	}
	var buf bytes.Buffer
	tree.WriteTree(&buf)
	if !tree.Connected() || tree.Roots[0].Kind != span.KindQuery || tree.Roots[0].Node != "n1" {
		t.Fatalf("want one tree rooted at n1's query span (%d roots, %d orphans):\n%s", len(tree.Roots), tree.Orphans, buf.String())
	}
	for _, rpc := range tree.Roots[0].Children {
		if rpc.Kind != span.KindRPC {
			continue
		}
		for _, fv := range rpc.Children {
			if fv.Kind == span.KindFreeView && fv.Node == "n2" {
				return
			}
		}
	}
	t.Fatalf("no query → rpc → n2 freeview path:\n%s", buf.String())
}

// TestClusterQueryWatchScoping pins which snapshots a cluster node
// scopes: only a nameless query over its own locations, whose verdict
// no write elsewhere can move. A name may be held anywhere, and a
// remote or unowned location is written by other ledgers.
func TestClusterQueryWatchScoping(t *testing.T) {
	tc := newTestCluster(t, 2, 1, 4, 1000, 50, func(c *Config) { c.GossipInterval = -1 })
	own, remote := tc.Members[0].Locations[0], tc.Members[1].Locations[0]
	for q, want := range map[string]bool{
		fmt.Sprintf("holds(%s, cpu>=1, next 5)", own): true,
		"true": true,
		fmt.Sprintf("holds(%s, cpu>=1, next 5)", remote):                      false,
		"holds(nowhere, cpu>=1, next 5)":                                      false,
		fmt.Sprintf("holds(%s, cpu>=1, next 5) and feasible(ghost)", own):     false,
		fmt.Sprintf("holds(%s, cpu>=1, next 5) or before(ghost, ghost)", own): false,
	} {
		c, err := query.ParseText(q)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := tc.Members[0].Node.querySnapshot(context.Background(), c)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if snap.Scoped != want {
			t.Errorf("%s: scoped=%v, want %v", q, snap.Scoped, want)
		}
	}
}
