// Command rotaload drives a synthetic workload at rotad and reports
// throughput and decision-latency percentiles. It dials a running
// daemon or cluster, or, with -selftest, boots one in-process on
// loopback ports and runs the end-to-end acceptance harness: the load,
// every probe and every ledger audit, exiting non-zero on any broken
// invariant.
//
// Usage:
//
//	rotad -addr :8080 &
//	rotaload -addr http://localhost:8080 -n 1000 -clients 8
//	rotaload -selftest -n 1000 -clients 8 -seed 42
//	rotaload -selftest -cluster 3 -n 1000 -clients 8 -locations 6 -seed 42
//	rotaload -selftest -chaos -cluster 3 -n 150 -clients 4 -locations 6 -seed 42
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/obs/assure"
	"repro/internal/resource"
	"repro/internal/selftest"
	"repro/internal/server"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rotaload:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rotaload", flag.ContinueOnError)
	addr := fs.String("addr", "http://localhost:8080", "base URL of the rotad daemon; comma-separated list spreads load across a cluster's nodes")
	n := fs.Int("n", 1000, "total admit requests")
	clients := fs.Int("clients", 4, "concurrent clients")
	seed := fs.Int64("seed", 1, "workload seed")
	locations := fs.Int("locations", 4, "locations to spread jobs across (l1..lN, must match the daemon's)")
	slack := fs.Float64("slack", 3, "deadline slack factor")
	release := fs.Bool("release", true, "release each admitted job immediately")
	timeout := fs.Duration("timeout", 10*time.Second, "per-request HTTP timeout")
	csv := fs.Bool("csv", false, "emit CSV")
	slowlog := fs.Int("slowlog", 0, "report the N slowest requests with their trace IDs (feed to rotatrace -spans)")
	queryFrac := fs.Float64("query-frac", 0, "fraction of requests issued as one-shot temporal queries instead of admits (0..1)")
	self := fs.Bool("selftest", false, "boot rotad in-process instead of dialing -addr, and run the acceptance probes and audits")
	nodes := fs.Int("cluster", 0, "selftest: boot an N-node loopback cluster instead of a single daemon")
	chaos := fs.Bool("chaos", false, "selftest: randomized kill/partition/heal schedule with automatic failure detection (needs -cluster >= 3)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *self {
		return selftest.Run(out, selftest.Config{
			Nodes: *nodes, Chaos: *chaos, Locations: *locations,
			Requests: *n, Clients: *clients, Seed: *seed, Slack: *slack, CSV: *csv,
		})
	}
	if *nodes != 0 || *chaos {
		return fmt.Errorf("-cluster and -chaos need -selftest")
	}
	if *queryFrac < 0 || *queryFrac > 1 {
		return fmt.Errorf("-query-frac %v outside [0,1]", *queryFrac)
	}
	var baseURLs []string
	for _, a := range strings.Split(*addr, ",") {
		a = strings.TrimSuffix(strings.TrimSpace(a), "/")
		if a == "" {
			continue
		}
		if !strings.Contains(a, "://") {
			a = "http://" + a
		}
		baseURLs = append(baseURLs, a)
	}
	if len(baseURLs) == 0 {
		return fmt.Errorf("-addr names no targets")
	}
	baseURL := baseURLs[0]

	locs := resource.Locations(*locations)
	jobs, err := selftest.Jobs(selftest.Mixed, *seed, locs, min(*n, 4096), 8, *slack)
	if err != nil {
		return err
	}
	ctx := context.Background()
	report, err := selftest.RunLoad(ctx, selftest.LoadConfig{
		BaseURLs:        baseURLs,
		Jobs:            jobs,
		Requests:        *n,
		Clients:         *clients,
		ReleaseAdmitted: *release,
		Timeout:         *timeout,
		SlowLog:         *slowlog,
		QueryFrac:       *queryFrac,
	})
	if err != nil {
		return err
	}

	// Server-side decision stats, when the daemon is reachable for them.
	var stats *server.StatsResponse
	if st, err := selftest.FetchStats(ctx, baseURL); err == nil {
		stats = &st
	}
	t := selftest.Table(fmt.Sprintf("rotaload: %d requests, %d clients -> %s", *n, *clients, strings.Join(baseURLs, ",")), report, stats)
	// The daemon's own account of the run: did every admitted deadline
	// hold? /v1/assure answers for one node or, via fan-out, a cluster.
	// Its shape differs between a single node (a stats block) and a
	// cluster member (summed totals); decode both and keep whichever the
	// daemon sent.
	client := &http.Client{Timeout: *timeout}
	var ar struct {
		Cluster bool         `json:"cluster"`
		Stats   assure.Stats `json:"stats"`
		Totals  assure.Stats `json:"totals"`
	}
	if err := selftest.GetJSON(ctx, client, baseURL+"/v1/assure", &ar); err == nil {
		as := ar.Stats
		if ar.Cluster {
			as = ar.Totals
		}
		t.AddRow("promise_violations", as.Violated)
		t.AddRow("promises kept", as.Kept)
		t.AddRow("promises active", as.Active)
		t.AddRow("slo attainment", as.Attainment)
		t.AddRow("violation burn rate/min", as.BurnRate)
	}
	// And the Prometheus exposition, when the daemon serves one: the
	// counters a dashboard would scrape, read back over the same wire.
	if m, err := scrapeMetrics(client, baseURL); err == nil {
		for _, row := range []struct{ label, family string }{
			{"scrape admitted_total", "rota_admitted_total"},
			{"scrape rejected_total", "rota_rejected_total"},
			{"scrape late_decisions_total", "rota_late_decisions_total"},
			{"scrape queue_depth", "rota_queue_depth"},
			{"scrape ledger commitments", "rota_ledger_commitments"},
			{"scrape queries_total", "rota_queries_total"},
			{"scrape ledger epoch", "rota_ledger_epoch"},
		} {
			if v, ok := obs.MetricValue(m, row.family, ""); ok {
				t.AddRow(row.label, v)
			}
		}
	}
	t.Print(out, *csv)

	if len(report.Slow) > 0 {
		fmt.Fprintln(out)
		st := metrics.NewTable(
			fmt.Sprintf("slow log: %d slowest requests (rotatrace -spans -trace <trace> %s/debug/rota/trace)", len(report.Slow), baseURL),
			"trace", "job", "admit", "latency µs", "slack@admit")
		for _, s := range report.Slow {
			st.AddRow(s.Trace, s.Job, s.Admit, s.LatencyUS, s.SlackAtAdmit)
		}
		st.Print(out, *csv)
	}

	if report.Errors > 0 {
		return fmt.Errorf("%d of %d requests errored", report.Errors, report.Requests)
	}
	return nil
}

// scrapeMetrics fetches and parses the daemon's Prometheus exposition.
func scrapeMetrics(client *http.Client, baseURL string) (map[string]float64, error) {
	resp, err := client.Get(baseURL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("rotaload: %s/metrics returned %d", baseURL, resp.StatusCode)
	}
	return obs.ParseMetrics(io.LimitReader(resp.Body, 4<<20))
}
