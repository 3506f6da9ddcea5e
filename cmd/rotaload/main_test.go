package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/resource"
	"repro/internal/server"
)

func testDaemon(t *testing.T) *httptest.Server {
	t.Helper()
	theta := resource.Mesh(resource.Locations(4), 4, 1, 100000)
	srv, err := server.New(server.Config{Theta: theta, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		_ = srv.Shutdown(context.Background())
	})
	return ts
}

func TestRotaloadAgainstLiveDaemon(t *testing.T) {
	ts := testDaemon(t)
	var out bytes.Buffer
	err := run([]string{
		"-addr", ts.URL,
		"-n", "120",
		"-clients", "4",
		"-seed", "5",
	}, &out)
	if err != nil {
		t.Fatalf("rotaload: %v\n%s", err, out.String())
	}
	for _, want := range []string{"throughput req/s", "latency p99 µs", "server decisions"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRotaloadSchemelessAddr(t *testing.T) {
	ts := testDaemon(t)
	var out bytes.Buffer
	err := run([]string{
		"-addr", strings.TrimPrefix(ts.URL, "http://"),
		"-n", "20", "-clients", "4", "-csv",
	}, &out)
	if err != nil {
		t.Fatalf("rotaload schemeless: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "requests,20") {
		t.Errorf("csv missing requests row:\n%s", out.String())
	}
}

func TestRotaloadUnreachableDaemon(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-addr", "http://127.0.0.1:1", "-n", "4", "-clients", "2"}, &out); err == nil {
		t.Fatal("expected errors against an unreachable daemon")
	}
}

func TestSelftestCSV(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-selftest", "-n", "40", "-clients", "4", "-csv",
	}, &out)
	if err != nil {
		t.Fatalf("selftest -csv: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "requests,40") {
		t.Errorf("csv output missing requests row:\n%s", out.String())
	}
}

// TestChaosNeedsCluster: -chaos without a big enough -cluster must be
// refused with a clear error, not hang waiting for a quorum that can
// never form.
func TestChaosNeedsCluster(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-selftest", "-chaos", "-cluster", "2"}, &out); err == nil {
		t.Fatal("chaos selftest with 2 nodes should be refused (quorum eviction is undefined below 3 members)")
	}
}
