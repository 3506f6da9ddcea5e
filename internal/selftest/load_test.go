package selftest

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/membership"
	"repro/internal/resource"
	"repro/internal/server"
	"repro/internal/workload"
)

func newTestServer(t *testing.T, theta resource.Set) (*server.Server, *httptest.Server) {
	t.Helper()
	srv, err := server.New(server.Config{Theta: theta, Workers: 4, DecisionTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		_ = srv.Shutdown(context.Background())
	})
	return srv, ts
}

// TestServerConcurrentLoad drives >100 concurrent admit/release requests
// through the real HTTP stack (run under -race) and audits the ledger.
func TestServerConcurrentLoad(t *testing.T) {
	locs := []resource.Location{"l1", "l2", "l3", "l4"}
	srv, ts := newTestServer(t, resource.Mesh(locs, 4, 1, 4096))

	jobs, err := workload.Generate(workload.Config{
		Seed: 11, Locations: locs, NumJobs: 150,
		MeanInterarrival: 8, ActorsMin: 1, ActorsMax: 2,
		StepsMin: 1, StepsMax: 3, SendProb: 0.25, MigrateProb: 0.05,
		EvalWeightMax: 2, SlackFactor: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	report, err := RunLoad(context.Background(), LoadConfig{
		BaseURLs:        []string{ts.URL},
		Jobs:            jobs,
		Requests:        150,
		Clients:         8,
		ReleaseAdmitted: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Admitted == 0 {
		t.Fatal("nothing admitted under load")
	}
	if report.Errors > 0 {
		t.Fatalf("load errors: %+v", report)
	}
	st := srv.Stats()
	if st.Decisions != st.Admitted+st.Rejected {
		t.Fatalf("stats accounting under load: %+v", st)
	}
	if int(st.Decisions) != report.Requests {
		t.Fatalf("server saw %d decisions for %d requests", st.Decisions, report.Requests)
	}
	if st.DecisionLatencyUS.P99 <= 0 {
		t.Fatalf("p99 latency not recorded: %+v", st.DecisionLatencyUS)
	}
	if err := srv.Ledger().Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestLoadFollowsOwnershipRedirect: a 421 from a stale owner must not
// count as an error — the load generator follows it to the new owner,
// learns the mapping, and routes the rest of the run there directly.
func TestLoadFollowsOwnershipRedirect(t *testing.T) {
	locs := []resource.Location{"l1", "l2"}
	_, fresh := newTestServer(t, resource.Mesh(locs, 4, 0, 4096))

	// The stale owner answers every admit with "l1 and l2 moved"; the
	// redirect cache means it should only ever be asked once.
	var staleHits atomic.Int64
	stale := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		staleHits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusMisdirectedRequest)
		_ = json.NewEncoder(w).Encode(membership.RedirectResponse{
			OwnerID: "n2", OwnerURL: fresh.URL, Epoch: 2, Locs: locs,
		})
	}))
	t.Cleanup(stale.Close)

	jobs, err := workload.Generate(workload.Config{
		Seed: 7, Locations: locs, NumJobs: 40,
		MeanInterarrival: 8, ActorsMin: 1, ActorsMax: 1,
		StepsMin: 1, StepsMax: 2, EvalWeightMax: 2, SlackFactor: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	report, err := RunLoad(context.Background(), LoadConfig{
		BaseURLs:        []string{stale.URL},
		Jobs:            jobs,
		Requests:        40,
		Clients:         1, // deterministic: the first redirect reroutes everyone after
		ReleaseAdmitted: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Errors != 0 {
		t.Fatalf("redirects surfaced as errors: %+v", report)
	}
	if report.Redirects != 1 {
		t.Fatalf("followed %d redirects, want exactly 1 (then cached): %+v", report.Redirects, report)
	}
	if got := staleHits.Load(); got != 1 {
		t.Fatalf("stale owner was asked %d times, want 1", got)
	}
	if report.Admitted+report.Rejected != report.Requests {
		t.Fatalf("accounting off after redirect: %+v", report)
	}
	if report.Admitted == 0 {
		t.Fatalf("nothing admitted through the redirect target: %+v", report)
	}
}

// TestLoadRedirectLoopSurfaces: a redirect chain that never lands (two
// stale owners pointing at each other) must give up after the hop
// bound and count an error instead of spinning.
func TestLoadRedirectLoopSurfaces(t *testing.T) {
	var aURL, bURL string
	mk := func(peer *string) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusMisdirectedRequest)
			_ = json.NewEncoder(w).Encode(membership.RedirectResponse{
				OwnerID: "nx", OwnerURL: *peer, Epoch: 2, Locs: []resource.Location{"l1"},
			})
		}
	}
	a := httptest.NewServer(mk(&bURL))
	b := httptest.NewServer(mk(&aURL))
	t.Cleanup(a.Close)
	t.Cleanup(b.Close)
	aURL, bURL = a.URL, b.URL

	jobs, err := workload.Generate(workload.Config{
		Seed: 7, Locations: []resource.Location{"l1"}, NumJobs: 2,
		MeanInterarrival: 8, ActorsMin: 1, ActorsMax: 1,
		StepsMin: 1, StepsMax: 1, EvalWeightMax: 2, SlackFactor: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	report, err := RunLoad(context.Background(), LoadConfig{
		BaseURLs: []string{a.URL},
		Jobs:     jobs[:1],
		Clients:  1,
	})
	// Every request died chasing redirects, so RunLoad itself reports
	// the failure — with the redirect as the underlying cause.
	if err == nil || !strings.Contains(err.Error(), "ownership moved") {
		t.Fatalf("want a load failure naming the redirect, got err=%v report=%+v", err, report)
	}
	if report.Errors != 1 {
		t.Fatalf("redirect loop should surface as one error: %+v", report)
	}
	if report.Redirects != maxRedirectHops {
		t.Fatalf("chased %d hops, want the %d bound: %+v", report.Redirects, maxRedirectHops, report)
	}
}
