package cluster

import (
	"net/http"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/server"
)

// TestClusterTraceCorrelation drives one federated admission through a
// 3-node cluster with an explicit trace ID and asserts the same ID is
// logged on the coordinator and on both two-phase participants.
func TestClusterTraceCorrelation(t *testing.T) {
	tc := newTestCluster(t, 3, 1, 4, 1000, 50)

	const trace = "cluster-trace-42"
	job := spanningJob(t, "span-trace", tc.Members[0].Locations[0], tc.Members[1].Locations[0], 1000)
	// Submitted to n3, which owns none of the footprint: n3 coordinates,
	// n1 and n2 participate over HTTP.
	status, body := post(t, tc.Members[2].URL+"/v1/admit", job, map[string]string{obs.HeaderTraceID: trace})
	if status != http.StatusOK || !strings.Contains(string(body), `"admit":true`) {
		t.Fatalf("federated admit: %d %s", status, body)
	}

	for i, role := range []string{"participant n1", "participant n2", "coordinator n3"} {
		if !strings.Contains(tc.Members[i].Log.String(), "trace="+trace) {
			t.Errorf("%s never logged trace %s:\n%s", role, trace, tc.Members[i].Log.String())
		}
	}
	for _, i := range []int{0, 1} {
		log := tc.Members[i].Log.String()
		if !strings.Contains(log, "event=twophase.prepare") || !strings.Contains(log, "event=twophase.commit") {
			t.Errorf("participant n%d missing two-phase events:\n%s", i+1, log)
		}
	}
	if !strings.Contains(tc.Members[2].Log.String(), "event=admit.decision") {
		t.Errorf("coordinator missing verdict event:\n%s", tc.Members[2].Log.String())
	}
}

// TestClusterMetricsEndpoint scrapes a node's /metrics after federated
// traffic: one scrape must carry both layers' families.
func TestClusterMetricsEndpoint(t *testing.T) {
	tc := newTestCluster(t, 2, 1, 4, 1000, 50)

	job := spanningJob(t, "span-scrape", tc.Members[0].Locations[0], tc.Members[1].Locations[0], 1000)
	if status, body := post(t, tc.Members[0].URL+"/v1/admit", job, nil); status != http.StatusOK {
		t.Fatalf("federated admit: %d %s", status, body)
	}

	resp, err := http.Get(tc.Members[0].URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	m, err := obs.ParseMetrics(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	checks := map[string]float64{
		"rota_cluster_peers":                             2,
		"rota_cluster_coordinations_total":               1,
		"rota_admitted_total":                            1,
		`rota_cluster_peer_rpc_retries_total{peer="n2"}`: 0,
	}
	for key, want := range checks {
		if got, ok := m[key]; !ok || got != want {
			t.Errorf("scraped %s = %v, %v; want %v", key, got, ok, want)
		}
	}
	// The embedded server's families ride the same scrape.
	if _, ok := m["rota_ledger_shards"]; !ok {
		t.Error("server-layer families missing from cluster scrape")
	}
	if v, ok := m[`rota_cluster_peer_rpc_total{peer="n2",outcome="ok"}`]; !ok || v < 1 {
		t.Errorf("peer RPC ok counter = %v, %v", v, ok)
	}
	if _, ok := m[`rota_http_requests_total{layer="cluster",endpoint="admit",class="2xx"}`]; !ok {
		t.Error("cluster-layer endpoint family missing")
	}
}

// TestNodeStatsCarriesServerStats guards the /v1/stats composition the
// exposition mirrors.
func TestNodeStatsCarriesServerStats(t *testing.T) {
	tc := newTestCluster(t, 2, 1, 4, 1000, 50)
	st := tc.Members[0].Node.Stats()
	if st.Node != "n1" || st.Shards != 1 {
		t.Fatalf("stats = node %q, shards %d", st.Node, st.Shards)
	}
	var _ server.StatsResponse = st.StatsResponse
}
