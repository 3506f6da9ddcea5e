package cluster

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/admission"
	"repro/internal/compute"
	"repro/internal/cost"
	"repro/internal/interval"
	"repro/internal/resource"
	"repro/internal/server"
	"repro/internal/workload"
)

var updateRejects = flag.Bool("update-rejects", false, "rewrite testdata/reject_json.golden")

// elapsedUS matches the one wall-clock field of an admit response.
var elapsedUS = regexp.MustCompile(`"elapsed_us":\d+`)

// TestRejectJSONGolden pins the /v1/admit response body of every kind
// of refusal the daemon makes — deadline passed, a one- and a two-actor
// witness failure, the exhaustive search's ordering failure, names with
// spaces, and the coordinated deadline and prepare-overcommit refusals
// — byte for byte, with elapsed_us zeroed. Rerun with -update-rejects
// after a deliberate change.
func TestRejectJSONGolden(t *testing.T) {
	type entry struct {
		name string
		h    http.Handler
		job  workload.Job
	}
	greedy := rejectServer(t, &admission.Rota{}, 0)
	entries := []entry{
		{"deadline_passed", rejectServer(t, &admission.Rota{}, 50), evalJob(t, "late", 40, "late.a@l1")},
		{"witness_single", greedy, evalJob(t, "w1", 2, "w1.a@l1")},
		{"witness_multi", greedy, evalJob(t, "w2", 2, "w2.a1@l1", "w2.a2@l2")},
		{"ordering", rejectServer(t, &admission.Rota{Exhaustive: true}, 0), evalJob(t, "o1", 6, "o1.a1@l1", "o1.a2@l1")},
		{"space_actor", greedy, evalJob(t, "big job", 2, "big job.a@l1")},
		{"space_location", greedy, evalJob(t, "r1", 2, "r1.a@rack 1")},
		{"coord_deadline_passed", overcommitCluster(t, "l2", 600), evalJob(t, "cl", 500, "cl.a1@l1", "cl.a2@l2")},
		{"coord_overcommit", overcommitCluster(t, "l2", 0), evalJob(t, "oc", 4, "oc.a1@l1", "oc.a2@l2")},
		{"coord_overcommit_space", overcommitCluster(t, "rack 1", 0), evalJob(t, "os", 4, "os.a1@l1", "os.a2@rack 1")},
	}
	var got strings.Builder
	for _, e := range entries {
		body := serve(t, e.h, http.MethodPost, "/v1/admit", e.job)
		fmt.Fprintf(&got, "%s %s", e.name, elapsedUS.ReplaceAllString(body, `"elapsed_us":0`))
	}

	const path = "testdata/reject_json.golden"
	if *updateRejects {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("reject bodies drifted from %s (rerun with -update-rejects if deliberate):\n got:\n%s\nwant:\n%s", path, got.String(), want)
	}
}

// TestPrepareOvercommitNamesShardAndNode: a participant refusing a
// prepare for capacity on a shard whose name has a space still yields
// provenance naming that shard and the refusing node.
func TestPrepareOvercommitNamesShardAndNode(t *testing.T) {
	nd := overcommitCluster(t, "rack 1", 0)
	var resp server.AdmitResponse
	body := serve(t, nd, http.MethodPost, "/v1/admit", evalJob(t, "os", 4, "os.a1@l1", "os.a2@rack 1"))
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	p := resp.Provenance
	if resp.Admit || p == nil {
		t.Fatalf("overcommitted prepare answered %s", body)
	}
	if p.Stage != "capacity" || p.Constraint != "free-view" || p.Term != "rack 1" || p.Node != "n2" {
		t.Fatalf("provenance = %+v, want capacity/free-view term=\"rack 1\" node=n2", p)
	}
}

// TestMigrateRefusalMessage: a migration the target cannot hold is
// refused with 409 and the target's overcommit in the message.
func TestMigrateRefusalMessage(t *testing.T) {
	nd := overcommitCluster(t, "l2", 0)
	serve(t, nd, http.MethodPost, "/v1/admit", evalJob(t, "m1", 10, "m1.a@l1"))
	rec := httptest.NewRecorder()
	body, _ := json.Marshal(MigrateRequest{Name: "m1", Target: "n2"})
	nd.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/cluster/migrate", strings.NewReader(string(body))))
	const want = `{"error":"cluster: n2 cannot accommodate m1: server: demand exceeds free availability: shard l2 cannot hold prepare n1.migrate.m1.1 for m1"}` + "\n"
	if rec.Code != http.StatusConflict || rec.Body.String() != want {
		t.Fatalf("migrate answered %d %s, want 409 %s", rec.Code, rec.Body.String(), want)
	}
}

// rejectServer is a standalone daemon over 2 cpu/tick at l1, l2 and
// "rack 1" in (0,100), its clock at now.
func rejectServer(t *testing.T, policy *admission.Rota, now interval.Time) *server.Server {
	t.Helper()
	var theta resource.Set
	for _, loc := range []resource.Location{"l1", "l2", "rack 1"} {
		theta.Add(resource.NewTerm(resource.FromUnits(2), resource.CPUAt(loc), interval.New(0, 100)))
	}
	srv, err := server.New(server.Config{Policy: policy, Theta: theta, Now: now})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Shutdown(context.Background()) })
	return srv
}

// overcommitCluster is node n1 (owning l1, 2 cpu/tick) federated with a
// participant n2 owning shard, whose real ledger holds 1 cpu/tick but
// whose free view claims 1000 at clock now — so n1 plans a slice on
// shard that n2's prepare then refuses for capacity.
func overcommitCluster(t *testing.T, shard resource.Location, now interval.Time) *Node {
	t.Helper()
	var own, lie resource.Set
	own.Add(resource.NewTerm(resource.FromUnits(1), resource.CPUAt(shard), interval.New(0, 100)))
	lie.Add(resource.NewTerm(resource.FromUnits(1000), resource.CPUAt(shard), interval.New(0, 100)))
	part, err := server.New(server.Config{Theta: own, Owned: []resource.Location{shard}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = part.Shutdown(context.Background()) })
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/cluster/free", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, server.FreeResponse{Now: now, Free: lie.Compact()})
	})
	mux.Handle("/", part)
	peer := httptest.NewServer(mux)
	t.Cleanup(peer.Close)

	var theta resource.Set
	theta.Add(resource.NewTerm(resource.FromUnits(2), resource.CPUAt("l1"), interval.New(0, 100)))
	nd, err := New(Config{
		Self: "n1",
		Peers: []Peer{
			{ID: "n1", URL: "http://127.0.0.1:1", Locations: []resource.Location{"l1"}},
			{ID: "n2", URL: peer.URL, Locations: []resource.Location{shard}},
		},
		Server:         server.Config{Policy: &admission.Rota{}, Theta: theta},
		GossipInterval: -1,
		RPCRetries:     -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = nd.Shutdown(context.Background()) })
	return nd
}

// evalJob builds a job of one-evaluate actors (8 cpu each), each given
// as "actor@location", in the window (0, deadline).
func evalJob(t *testing.T, name string, deadline interval.Time, actors ...string) workload.Job {
	t.Helper()
	var comps []compute.Computation
	for _, a := range actors {
		actor, loc, _ := strings.Cut(a, "@")
		c, err := cost.Realize(cost.Paper(), compute.ActorName(actor), compute.Evaluate(compute.ActorName(actor), resource.Location(loc), 1))
		if err != nil {
			t.Fatal(err)
		}
		comps = append(comps, c)
	}
	dist, err := compute.NewDistributed(name, 0, deadline, comps...)
	if err != nil {
		t.Fatal(err)
	}
	return workload.Job{Dist: dist}
}
