package cluster

import (
	"net/http"
	"strings"
	"testing"

	"repro/internal/interval"
	"repro/internal/obs"
	"repro/internal/resource"
	"repro/internal/server"
)

// requestSamples sums a node's rota_http_requests_total samples by
// layer label.
func requestSamples(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	m, err := obs.ParseMetrics(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for key, v := range m {
		for _, layer := range []string{"cluster", "server"} {
			if strings.HasPrefix(key, `rota_http_requests_total{layer="`+layer+`"`) {
				out[layer] += v
			}
		}
	}
	return out
}

// TestRoutedEndpointsServedOnce holds every routed endpoint to one pass
// through one HTTP stack: a forwarded admit, a forwarded release and a
// participant's prepare, commit, abort and free view each add exactly
// one request sample on the node that serves them, under
// layer="cluster", and none under layer="server".
func TestRoutedEndpointsServedOnce(t *testing.T) {
	tc := newTestCluster(t, 2, 1, 4, 1000, 50, func(c *Config) { c.GossipInterval = -1 })
	url, loc := tc.Members[1].URL, tc.Members[1].Locations[0]
	fwd := map[string]string{headerForwarded: "n1"}
	var demand resource.Set
	demand.Add(resource.NewTerm(resource.FromUnits(1), resource.CPUAt(loc), interval.New(0, 10)))
	prepare := server.PrepareRequest{Key: "k1", Name: "held", Demand: demand.Compact(), Finish: 10, Deadline: 100, Expiry: 50}

	for _, step := range []struct {
		what string
		send func() int
	}{
		{"forwarded admit", func() int {
			status, _ := post(t, url+"/v1/admit", pinnedJob(t, "once", loc, 1000), fwd)
			return status
		}},
		{"forwarded release", func() int {
			status, _ := post(t, url+"/v1/release", map[string]string{"name": "once"}, fwd)
			return status
		}},
		{"prepare", func() int {
			status, _ := post(t, url+"/v1/cluster/prepare", prepare, nil)
			return status
		}},
		{"commit", func() int {
			status, _ := post(t, url+"/v1/cluster/commit", server.FinishRequest{Key: "k1"}, nil)
			return status
		}},
		{"abort", func() int {
			status, _ := post(t, url+"/v1/cluster/abort", server.FinishRequest{Key: "k1"}, nil)
			return status
		}},
		{"free", func() int {
			resp, err := http.Get(url + "/v1/cluster/free?locs=" + string(loc))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			return resp.StatusCode
		}},
	} {
		before := requestSamples(t, url)
		if status := step.send(); status != http.StatusOK {
			t.Fatalf("%s answered %d", step.what, status)
		}
		after := requestSamples(t, url)
		if d := after["cluster"] - before["cluster"]; d != 1 {
			t.Errorf("%s added %v cluster-layer request samples, want 1", step.what, d)
		}
		if d := after["server"] - before["server"]; d != 0 {
			t.Errorf("%s added %v server-layer request samples, want 0", step.what, d)
		}
	}
}

// TestReleaseCountsEveryLeg releases a coordinated job from one of its
// owners: the entry node's own share and the peer's forwarded share
// are each one release on the node that held it.
func TestReleaseCountsEveryLeg(t *testing.T) {
	tc := newTestCluster(t, 2, 1, 4, 1000, 50)
	job := spanningJob(t, "both", tc.Members[0].Locations[0], tc.Members[1].Locations[0], 1000)
	if status, v := admitVerdict(t, tc.Members[0].URL, job); status != http.StatusOK || !v.Admit {
		t.Fatalf("spanning admit answered %d %+v", status, v)
	}
	if status, body := post(t, tc.Members[0].URL+"/v1/release", map[string]string{"name": "both"}, nil); status != http.StatusOK {
		t.Fatalf("release answered %d %s", status, body)
	}
	for _, nd := range tc.Nodes() {
		if got := nd.Server().Stats().Released; got != 1 {
			t.Errorf("%s counted %d releases, want 1", nd.ID(), got)
		}
	}
}
