package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/compute"
	"repro/internal/cost"
	"repro/internal/interval"
	"repro/internal/membership"
	"repro/internal/obs"
	"repro/internal/obs/assure"
	"repro/internal/obs/span"
	"repro/internal/resource"
	"repro/internal/server"
	"repro/internal/workload"
)

// newTestCluster boots a fleet of nNodes seeds owning locsPerNode cpu
// locations each (rate units/tick over (0, horizon)), with the given
// lease TTL and fast gossip; each tweak then edits every node's Config,
// a joiner's included. The fleet stops when the test ends.
func newTestCluster(t testing.TB, nNodes, locsPerNode int, rate int64, horizon, ttl interval.Time, tweak ...func(*Config)) *Fleet {
	t.Helper()
	locs := resource.Locations(nNodes * locsPerNode)
	theta := resource.Mesh(locs, rate, 0, horizon)
	tc, err := StartFleet(nNodes, locs, func(m *Member, c *Config) {
		c.Server = server.Config{Policy: &admission.Rota{}, Theta: theta, Assure: assure.New(m.ID)}
		c.LeaseTTL, c.GossipInterval = ttl, 50*time.Millisecond
		c.Obs = obs.New(obs.Options{Log: m.Log, Node: m.ID})
		c.Spans = span.NewStore(span.DefaultCapacity, m.ID)
		for _, f := range tweak {
			f(c)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tc.Stop)
	return tc
}

// spanningJob builds a two-actor job evaluating at two locations.
func spanningJob(t testing.TB, name string, locA, locB resource.Location, deadline interval.Time) workload.Job {
	t.Helper()
	model := cost.Paper()
	a1 := compute.ActorName(name + ".a1")
	a2 := compute.ActorName(name + ".a2")
	c1, err := cost.Realize(model, a1, compute.Evaluate(a1, locA, 1))
	if err != nil {
		t.Fatal(err)
	}
	c2, err := cost.Realize(model, a2, compute.Evaluate(a2, locB, 1))
	if err != nil {
		t.Fatal(err)
	}
	dist, err := compute.NewDistributed(name, 0, deadline, c1, c2)
	if err != nil {
		t.Fatal(err)
	}
	return workload.Job{Dist: dist}
}

// pinnedJob builds a one-actor job confined to one location.
func pinnedJob(t testing.TB, name string, loc resource.Location, deadline interval.Time) workload.Job {
	t.Helper()
	actor := compute.ActorName(name + ".a")
	c, err := cost.Realize(cost.Paper(), actor, compute.Evaluate(actor, loc, 1))
	if err != nil {
		t.Fatal(err)
	}
	dist, err := compute.NewDistributed(name, 0, deadline, c)
	if err != nil {
		t.Fatal(err)
	}
	return workload.Job{Dist: dist}
}

// writeJSON and httpError let a fake peer answer the way a node does.
func writeJSON(w http.ResponseWriter, status int, v any) { server.WriteJSON(w, status, v) }

func httpError(w http.ResponseWriter, status int, err error) { server.HTTPError(w, status, err) }

// post sends a JSON body and returns (status, response bytes).
func post(t testing.TB, url string, v any, headers map[string]string) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, val := range headers {
		req.Header.Set(k, val)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func admitVerdict(t testing.TB, url string, job workload.Job) (int, server.AdmitResponse) {
	t.Helper()
	status, data := post(t, url+"/v1/admit", job, nil)
	var out server.AdmitResponse
	if status == http.StatusOK {
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("unparsable admit response %s: %v", data, err)
		}
	}
	return status, out
}

func auditAll(t testing.TB, tc *Fleet, when string) {
	t.Helper()
	for _, m := range tc.Live() {
		if err := m.Node.Server().Ledger().Audit(); err != nil {
			t.Fatalf("%s: node %s audit: %v", when, m.ID, err)
		}
	}
}

// TestClusterFederatedAdmissionUnderCrash is the crash-safety
// integration test: a 3-node cluster takes concurrent single- and
// multi-location admissions while a coordinator crash is injected
// between prepare and commit of a cross-node job. Afterwards every
// node's no-overcommitment audit must pass, and once the clock passes
// the lease TTL the orphaned holds must be swept on every node.
func TestClusterFederatedAdmissionUnderCrash(t *testing.T) {
	const ttl = interval.Time(50)
	tc := newTestCluster(t, 3, 2, 4, 100000, ttl)

	// Inject the coordinator crash mid-protocol on n1.
	tc.Members[0].Node.InjectCrashBeforeCommit()
	crash := spanningJob(t, "crash-probe", tc.Members[0].Locations[0], tc.Members[1].Locations[0], 100000)
	status, _ := admitVerdict(t, tc.Members[0].URL, crash)
	if status != http.StatusInternalServerError {
		t.Fatalf("crash probe returned %d, want 500", status)
	}
	orphans := 0
	for _, nd := range tc.Nodes() {
		orphans += nd.Server().Ledger().NumHolds()
	}
	if orphans < 2 {
		t.Fatalf("crash left %d orphaned holds, want >= 2 (both participants)", orphans)
	}

	// Concurrent mixed load against all three nodes.
	const clients, perClient = 8, 30
	var admitted, rejected atomic.Int64
	var wg sync.WaitGroup
	allLocs := []resource.Location{}
	for _, p := range tc.Members {
		allLocs = append(allLocs, p.Locations...)
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				name := fmt.Sprintf("job-%d-%d", c, i)
				var job workload.Job
				switch i % 3 {
				case 0: // spans two owners: coordinated
					job = spanningJob(t, name, allLocs[i%len(allLocs)], allLocs[(i+3)%len(allLocs)], 100000)
				default: // single owner: local or forwarded
					job = pinnedJob(t, name, allLocs[(c+i)%len(allLocs)], 100000)
				}
				status, verdict := admitVerdict(t, tc.Members[(c+i)%len(tc.Members)].URL, job)
				if status != http.StatusOK {
					t.Errorf("admit %s returned %d", name, status)
					return
				}
				if verdict.Admit {
					admitted.Add(1)
				} else {
					rejected.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if admitted.Load() == 0 {
		t.Fatal("nothing admitted")
	}
	auditAll(t, tc, "after load")

	var coords, forwarded uint64
	for _, nd := range tc.Nodes() {
		st := nd.Stats()
		coords += st.Cluster.Coordinations
		forwarded += st.Cluster.Forwarded
	}
	if coords == 0 || forwarded == 0 {
		t.Fatalf("load exercised no federation paths: coordinations=%d forwarded=%d", coords, forwarded)
	}

	// Advance every ledger past the TTL through the fan-out endpoint;
	// the sweep must reclaim the crash's holds everywhere.
	status, data := post(t, tc.Members[0].URL+"/v1/cluster/advance", map[string]any{"now": ttl * 2}, nil)
	if status != http.StatusOK {
		t.Fatalf("cluster advance returned %d: %s", status, data)
	}
	swept := uint64(0)
	for _, nd := range tc.Nodes() {
		if holds := nd.Server().Ledger().NumHolds(); holds != 0 {
			t.Fatalf("node %s has %d holds after sweep — a lease outlived its TTL", nd.ID(), holds)
		}
		swept += nd.Server().Ledger().TwoPhase().LeasesExpired
	}
	if swept < 2 {
		t.Fatalf("sweeps reclaimed %d leases, want >= 2", swept)
	}
	auditAll(t, tc, "after sweep")
}

// TestClusterForwardingAndMisroute checks single-owner routing: a job
// pinned to another node's location is forwarded to its owner and
// admitted there, while a forwarded request landing on a non-owner is
// answered with a 421 naming the true owner (the sender follows the
// redirect instead of the job bouncing server-side).
func TestClusterForwardingAndMisroute(t *testing.T) {
	tc := newTestCluster(t, 3, 1, 4, 1000, 50)
	job := pinnedJob(t, "fwd-1", tc.Members[1].Locations[0], 1000)
	status, verdict := admitVerdict(t, tc.Members[0].URL, job)
	if status != http.StatusOK || !verdict.Admit {
		t.Fatalf("forwarded admit: status %d, verdict %+v", status, verdict)
	}
	if got := tc.Members[0].Node.Stats().Cluster.Forwarded; got != 1 {
		t.Fatalf("n1 forwarded = %d, want 1", got)
	}
	// The commitment lives on the owner, not the router.
	if tc.Members[1].Node.Server().Ledger().NumCommitments() != 1 {
		t.Fatal("owner has no commitment")
	}
	if tc.Members[0].Node.Server().Ledger().NumCommitments() != 0 {
		t.Fatal("router kept a commitment")
	}

	// A forwarded request whose footprint the receiver does not own is
	// answered with a redirect naming the true owner from the table.
	bad := pinnedJob(t, "fwd-2", tc.Members[2].Locations[0], 1000)
	status, data := post(t, tc.Members[0].URL+"/v1/admit", bad, map[string]string{headerForwarded: "n9"})
	if status != http.StatusMisdirectedRequest {
		t.Fatalf("misrouted admit returned %d, want 421", status)
	}
	var red membership.RedirectResponse
	if err := json.Unmarshal(data, &red); err != nil {
		t.Fatalf("decoding redirect: %v", err)
	}
	if red.OwnerID != tc.Members[2].ID || red.OwnerURL != tc.Members[2].URL {
		t.Fatalf("redirect names %s at %s, want %s at %s", red.OwnerID, red.OwnerURL, tc.Members[2].ID, tc.Members[2].URL)
	}
	if got := tc.Members[0].Node.Stats().Cluster.RedirectsServed; got != 1 {
		t.Fatalf("n1 redirects served = %d, want 1", got)
	}
	// A job naming a location nobody owns is rejected with a clear error.
	ghost := pinnedJob(t, "fwd-3", "l99", 1000)
	status, data = post(t, tc.Members[0].URL+"/v1/admit", ghost, nil)
	if status != http.StatusUnprocessableEntity || !bytes.Contains(data, []byte("no node owns")) {
		t.Fatalf("unowned-location admit: status %d body %s", status, data)
	}

	// Cluster-wide release finds the forwarded job on its owner.
	status, _ = post(t, tc.Members[2].URL+"/v1/release", map[string]string{"name": "fwd-1"}, nil)
	if status != http.StatusOK {
		t.Fatalf("cluster release returned %d", status)
	}
	if tc.Members[1].Node.Server().Ledger().NumCommitments() != 0 {
		t.Fatal("release did not reach the owner")
	}
	auditAll(t, tc, "after release")
}

// TestClusterMigrate re-homes a committed job: prepare/commit on the
// target through the standard two-phase path, then release at the
// source. The remaining demand must end up owned by the target.
func TestClusterMigrate(t *testing.T) {
	tc := newTestCluster(t, 3, 1, 4, 1000, 50)
	job := pinnedJob(t, "mig-1", tc.Members[1].Locations[0], 1000)
	status, verdict := admitVerdict(t, tc.Members[1].URL, job)
	if status != http.StatusOK || !verdict.Admit {
		t.Fatalf("admit: status %d, verdict %+v", status, verdict)
	}

	status, data := post(t, tc.Members[1].URL+"/v1/cluster/migrate", MigrateRequest{Name: "mig-1", Target: "n3"}, nil)
	if status != http.StatusOK {
		t.Fatalf("migrate returned %d: %s", status, data)
	}
	if tc.Members[1].Node.Server().Ledger().NumCommitments() != 0 {
		t.Fatal("source still holds the commitment")
	}
	if tc.Members[2].Node.Server().Ledger().NumCommitments() != 1 {
		t.Fatal("target did not receive the commitment")
	}
	if got := tc.Members[1].Node.Stats().Cluster.Migrations; got != 1 {
		t.Fatalf("migrations = %d, want 1", got)
	}
	demand, _, err := tc.Members[2].Node.Server().Ledger().RemainingDemand("mig-1")
	if err != nil {
		t.Fatal(err)
	}
	for _, term := range demand.Terms() {
		if term.Type.Loc != tc.Members[2].Locations[0] {
			t.Fatalf("migrated demand still at %s: %s", term.Type.Loc, demand.Compact())
		}
	}
	auditAll(t, tc, "after migrate")

	// Error surface: unknown job, unknown target, self target.
	if status, _ := post(t, tc.Members[1].URL+"/v1/cluster/migrate", MigrateRequest{Name: "ghost", Target: "n3"}, nil); status != http.StatusNotFound {
		t.Fatalf("unknown job: %d, want 404", status)
	}
	if status, _ := post(t, tc.Members[2].URL+"/v1/cluster/migrate", MigrateRequest{Name: "mig-1", Target: "n9"}, nil); status != http.StatusNotFound {
		t.Fatalf("unknown target: %d, want 404", status)
	}
	if status, _ := post(t, tc.Members[2].URL+"/v1/cluster/migrate", MigrateRequest{Name: "mig-1", Target: "n3"}, nil); status != http.StatusBadRequest {
		t.Fatalf("self target: %d, want 400", status)
	}

	// The migrated job releases cluster-wide like any other.
	if status, _ := post(t, tc.Members[0].URL+"/v1/release", map[string]string{"name": "mig-1"}, nil); status != http.StatusOK {
		t.Fatalf("release returned %d", status)
	}
	auditAll(t, tc, "after release")
}

// TestClusterGossip waits for the periodic gossip to propagate and
// checks that what peers read of it lands in the peer table: the
// sender's clock and its count of leased holds.
func TestClusterGossip(t *testing.T) {
	tc := newTestCluster(t, 2, 1, 4, 1000, 50)
	if _, err := tc.Members[1].Node.Server().Ledger().Advance(7); err != nil {
		t.Fatal(err)
	}
	var demand resource.Set
	demand.Add(resource.NewTerm(resource.FromUnits(1), resource.CPUAt(tc.Members[1].Locations[0]), interval.New(10, 20)))
	if err := tc.Members[1].Node.Server().Ledger().Prepare("k1", "held", demand, 20, 100, 500); err != nil {
		t.Fatal(err)
	}
	var last PeerStatus
	if !WaitFor(5*time.Second, func() bool {
		for _, st := range tc.Members[0].Node.Stats().Peers {
			if st.ID == "n2" {
				last = st
			}
		}
		return last.LastHeardMS >= 0 && last.GossipNow == 7 && last.GossipHolds == 1
	}) {
		t.Fatalf("n2's gossip never reached n1's peer table within 5s: %+v", last)
	}
}
