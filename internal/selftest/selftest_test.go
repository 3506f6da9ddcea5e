package selftest

import (
	"bytes"
	"strings"
	"testing"
)

// TestSelftestEndToEnd is the acceptance run: a real daemon on a
// loopback port, ≥1000 admission requests over HTTP from ≥4 concurrent
// clients, with the selftest's own consistency checks (admit+reject ==
// total, nonzero p99, clean ledger audit) enforced by Run's error.
func TestSelftestEndToEnd(t *testing.T) {
	var out bytes.Buffer
	err := Run(&out, Config{Requests: 1000, Clients: 4, Locations: 4, Seed: 7, Slack: 3})
	if err != nil {
		t.Fatalf("selftest failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "selftest ok") {
		t.Fatalf("selftest output missing verdict:\n%s", out.String())
	}
	for _, want := range []string{"throughput req/s", "decision p99 µs", "admitted", "query probe ok"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("selftest table missing %q:\n%s", want, out.String())
		}
	}
}

// TestClusterSelftestEndToEnd boots the 3-node loopback cluster so the
// cross-node probes — including the query fan-out equivalence check and
// the watch flipped by a coordinated admission — run under the test
// race detector.
func TestClusterSelftestEndToEnd(t *testing.T) {
	var out bytes.Buffer
	err := Run(&out, Config{Nodes: 3, Requests: 150, Clients: 4, Locations: 6, Seed: 7, Slack: 3})
	if err != nil {
		t.Fatalf("cluster selftest failed: %v\n%s", err, out.String())
	}
	for _, want := range []string{"cluster query probe ok", "cluster selftest ok"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("cluster selftest output missing %q:\n%s", want, out.String())
		}
	}
}

// TestChaosSelftest runs the randomized kill/partition/heal schedule
// under live load: automatic φ-accrual detection, quorum eviction,
// fence-and-rejoin, and the no-lost-reservations invariant all under
// the test race detector.
func TestChaosSelftest(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos schedule takes seconds; skipped in -short")
	}
	var out bytes.Buffer
	err := Run(&out, Config{Nodes: 3, Chaos: true, Requests: 150, Clients: 4, Locations: 6, Seed: 7, Slack: 3})
	if err != nil {
		t.Fatalf("chaos selftest failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "chaos selftest ok") {
		t.Errorf("chaos selftest output missing %q:\n%s", "chaos selftest ok", out.String())
	}
}
