package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/interval"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/resource"
	"repro/internal/server"
	"repro/internal/workload"
)

// admitTraced posts an admission and returns the verdict plus the trace
// ID the instrumented handler stamped on the response.
func admitTraced(t testing.TB, url string, job workload.Job) (server.AdmitResponse, string) {
	t.Helper()
	body, err := json.Marshal(job)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/admit", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admit returned %d", resp.StatusCode)
	}
	var out server.AdmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	trace := resp.Header.Get(obs.HeaderTraceID)
	if trace == "" {
		t.Fatal("admit response carries no trace ID")
	}
	return out, trace
}

// mergeSpans collects every node's span records into one slice, the way
// rotatrace merges per-node trace dumps.
func mergeSpans(tc *Fleet) []span.Record {
	var all []span.Record
	for _, nd := range tc.Nodes() {
		all = append(all, nd.spans.Snapshot()...)
	}
	return all
}

// TestClusterSpanTreeConnected is the cross-node propagation integration
// test: one federated admission through a 3-node cluster must leave a
// SINGLE connected span tree when the three nodes' dumps are merged —
// coordinator spans on the entry node, RPC attempt spans underneath,
// and participant prepare/commit spans parented onto the attempts that
// carried them.
func TestClusterSpanTreeConnected(t *testing.T) {
	tc := newTestCluster(t, 3, 1, 4, 1000, 50)

	// n1 owns neither location, so it coordinates n2 and n3.
	job := spanningJob(t, "span-probe", tc.Members[1].Locations[0], tc.Members[2].Locations[0], 1000)
	verdict, trace := admitTraced(t, tc.Members[0].URL, job)
	if !verdict.Admit {
		t.Fatalf("span probe rejected: %s", verdict.Reason)
	}

	tree := span.BuildTree(trace, mergeSpans(tc))
	if !tree.Connected() {
		var buf bytes.Buffer
		tree.WriteTree(&buf)
		t.Fatalf("federated admission left a disconnected span tree (%d roots, %d orphans):\n%s",
			len(tree.Roots), tree.Orphans, buf.String())
	}
	byKindNode := map[string]map[string]bool{}
	var walk func(n *span.TreeNode)
	walk = func(n *span.TreeNode) {
		if byKindNode[n.Kind] == nil {
			byKindNode[n.Kind] = map[string]bool{}
		}
		byKindNode[n.Kind][n.Node] = true
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(tree.Roots[0])
	if tree.Roots[0].Kind != span.KindCoordinate || tree.Roots[0].Node != "n1" {
		t.Fatalf("root is %s on %s, want %s on n1", tree.Roots[0].Kind, tree.Roots[0].Node, span.KindCoordinate)
	}
	for _, want := range []struct{ kind, node string }{
		{span.KindPlan, "n1"},
		{span.KindRPC, "n1"},
		{span.KindPrepare, "n2"},
		{span.KindPrepare, "n3"},
		{span.KindCommit, "n2"},
		{span.KindCommit, "n3"},
	} {
		if !byKindNode[want.kind][want.node] {
			var buf bytes.Buffer
			tree.WriteTree(&buf)
			t.Fatalf("tree is missing a %s span on %s:\n%s", want.kind, want.node, buf.String())
		}
	}
	if path := tree.CriticalPath(); len(path) < 3 {
		t.Fatalf("critical path has %d spans, want >= 3", len(path))
	}

	// A federated rejection must surface provenance: advance the cluster
	// clock past a probe's deadline so the coordinator rejects it.
	if status, data := post(t, tc.Members[0].URL+"/v1/cluster/advance", map[string]any{"now": 600}, nil); status != http.StatusOK {
		t.Fatalf("cluster advance returned %d: %s", status, data)
	}
	late := spanningJob(t, "span-late", tc.Members[1].Locations[0], tc.Members[2].Locations[0], 500)
	verdict, _ = admitTraced(t, tc.Members[0].URL, late)
	if verdict.Admit {
		t.Fatal("late probe admitted past its deadline")
	}
	if verdict.Provenance == nil {
		t.Fatalf("federated rejection %q carries no provenance", verdict.Reason)
	}
	if verdict.Provenance.Stage == "" || verdict.Provenance.Constraint == "" {
		t.Fatalf("rejection provenance incomplete: %+v", verdict.Provenance)
	}
}

// TestMigrateAbortSpanParent is the regression test for the detached
// abort path: when the target peer dies between prepare and commit of a
// migration, the rollback abort runs on a context detached from the
// dying request — but its span must still parent onto the migration
// span. Before span.Detach, only the trace ID survived detachment, so
// every such abort span was an orphan.
func TestMigrateAbortSpanParent(t *testing.T) {
	var freeSet resource.Set
	freeSet.Add(resource.NewTerm(resource.FromUnits(4), resource.CPUAt("l2"), interval.New(0, 1000)))

	// A fake target peer: grants the free view and the prepare, then
	// fails commit the way a freshly killed node would, mid-handover.
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/cluster/free", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, server.FreeResponse{Now: 0, Free: freeSet.Compact()})
	})
	mux.HandleFunc("POST /v1/cluster/prepare", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, server.PrepareResponse{Held: true})
	})
	mux.HandleFunc("POST /v1/cluster/commit", func(w http.ResponseWriter, r *http.Request) {
		httpError(w, http.StatusInternalServerError, errors.New("simulated node death"))
	})
	mux.HandleFunc("POST /v1/cluster/abort", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"aborted": "ok"})
	})
	peer := httptest.NewServer(mux)
	defer peer.Close()

	var theta resource.Set
	theta.Add(resource.NewTerm(resource.FromUnits(4), resource.CPUAt("l1"), interval.New(0, 1000)))
	store := span.NewStore(span.DefaultCapacity, "n1")
	nd, err := New(Config{
		Self: "n1",
		Peers: []Peer{
			{ID: "n1", URL: "http://127.0.0.1:1", Locations: []resource.Location{"l1"}},
			{ID: "n2", URL: peer.URL, Locations: []resource.Location{"l2"}},
		},
		Server:         server.Config{Policy: &admission.Rota{}, Theta: theta},
		GossipInterval: -1,
		RPCRetries:     -1,
		Spans:          store,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = nd.Shutdown(ctx)
	}()

	job := pinnedJob(t, "mig-span", "l1", 1000)
	body, _ := json.Marshal(job)
	rr := httptest.NewRecorder()
	nd.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/admit", bytes.NewReader(body)))
	if rr.Code != http.StatusOK {
		t.Fatalf("admit returned %d: %s", rr.Code, rr.Body.String())
	}

	mig, _ := json.Marshal(MigrateRequest{Name: "mig-span", Target: "n2"})
	rr = httptest.NewRecorder()
	nd.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/cluster/migrate", bytes.NewReader(mig)))
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("migrate with dead target returned %d, want 503: %s", rr.Code, rr.Body.String())
	}

	var migrate, abort *span.Record
	recs := store.Snapshot()
	for i := range recs {
		switch recs[i].Kind {
		case span.KindMigrate:
			migrate = &recs[i]
		case span.KindAbort:
			abort = &recs[i]
		}
	}
	if migrate == nil || abort == nil {
		t.Fatalf("span store is missing migrate/abort spans: %+v", recs)
	}
	if abort.Parent != migrate.ID {
		t.Fatalf("detached abort span parents on %q, want the migrate span %q", abort.Parent, migrate.ID)
	}
	if abort.Trace != migrate.Trace {
		t.Fatalf("abort span trace %q != migrate trace %q", abort.Trace, migrate.Trace)
	}
	if abort.Attrs["detached"] != "true" {
		t.Fatalf("abort span is not marked detached: %v", abort.Attrs)
	}
	if migrate.Attrs["outcome"] != "aborted" || migrate.Status != span.StatusError {
		t.Fatalf("migrate span outcome=%q status=%q, want aborted/error", migrate.Attrs["outcome"], migrate.Status)
	}
}
