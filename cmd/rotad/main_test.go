package main

import (
	"bytes"
	"errors"
	"flag"
	"slices"
	"strings"
	"testing"
)

func TestRunRejectsBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-theta", "garbage::("}, &out); err == nil {
		t.Fatal("accepted a malformed -theta literal")
	}
}

// TestFlagsAreServingFlags pins rotad's flag surface to the flags that
// configure a serving daemon. The load and acceptance harness lives in
// rotaload; a harness flag added here fails this test.
func TestFlagsAreServingFlags(t *testing.T) {
	serving := []string{
		"addr", "assure", "base", "cluster-config", "evict-phi", "flightrec-size",
		"gossip", "horizon", "join", "lease-ttl", "link", "locations", "log-format",
		"metrics", "node", "peers", "pin", "pprof", "rpc-backoff-base",
		"rpc-backoff-cap", "rpc-retries", "rpc-timeout", "self-url", "slow-ms",
		"span-store", "suspect-phi", "theta", "timeout", "workers",
	}
	var out bytes.Buffer
	if err := run([]string{"-h"}, &out); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h returned %v, want flag.ErrHelp", err)
	}
	var got []string
	for _, line := range strings.Split(out.String(), "\n") {
		if name, ok := strings.CutPrefix(line, "  -"); ok {
			got = append(got, strings.Fields(name)[0])
		}
	}
	slices.Sort(got)
	if !slices.Equal(got, serving) {
		t.Fatalf("rotad flags = %q\nwant the serving flags %q", got, serving)
	}
}
