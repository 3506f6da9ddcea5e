package fault

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// testTarget is an httptest server that counts requests and echoes the
// body length.
func testTarget(t *testing.T) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		io.Copy(io.Discard, r.Body)
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(srv.Close)
	return srv, &hits
}

func clientVia(n *Network, src string) *http.Client {
	return &http.Client{Transport: n.Transport(src, nil), Timeout: 5 * time.Second}
}

func TestDropRule(t *testing.T) {
	srv, hits := testTarget(t)
	n := NewNetwork(1)
	n.Register("n2", srv.URL)
	n.SetRule("n1", "n2", Rule{Drop: 1})

	_, err := clientVia(n, "n1").Get(srv.URL)
	if err == nil {
		t.Fatal("dropped request succeeded")
	}
	var de *DropError
	if !errors.As(err, &de) || de.Partition {
		t.Fatalf("want DropError{Partition:false} in chain, got %v", err)
	}
	if hits.Load() != 0 {
		t.Fatalf("server saw %d requests through a full drop", hits.Load())
	}
	c := n.Counters()
	if c.Dropped != 1 || c.Passed != 0 {
		t.Fatalf("counters %+v, want 1 drop 0 passed", c)
	}

	// Clearing the rule restores the wire.
	n.SetRule("n1", "n2", Rule{})
	if _, err := clientVia(n, "n1").Get(srv.URL); err != nil {
		t.Fatalf("clean wire failed: %v", err)
	}
	if hits.Load() != 1 || n.Counters().Passed != 1 {
		t.Fatalf("clean request did not pass (hits=%d, %+v)", hits.Load(), n.Counters())
	}
}

// partitioned reports whether src and dst are on different sides of a
// partition.
func partitioned(n *Network, src, dst string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.side[src] != n.side[dst]
}

func TestPartitionIsBidirectionalAndHeals(t *testing.T) {
	srvA, hitsA := testTarget(t)
	srvB, hitsB := testTarget(t)
	n := NewNetwork(1)
	n.Register("a", srvA.URL)
	n.Register("b", srvB.URL)
	n.Partition([]string{"b"}) // b vs everyone

	if _, err := clientVia(n, "a").Get(srvB.URL); err == nil {
		t.Fatal("a→b crossed the partition")
	}
	var de *DropError
	if _, err := clientVia(n, "b").Get(srvA.URL); err == nil {
		t.Fatal("b→a crossed the partition")
	} else if !errors.As(err, &de) || !de.Partition {
		t.Fatalf("want DropError{Partition:true}, got %v", err)
	}
	// Same-side traffic (a ↔ a's group) is untouched.
	if _, err := clientVia(n, "c").Get(srvA.URL); err != nil {
		t.Fatalf("same-side call failed: %v", err)
	}
	if !partitioned(n, "a", "b") || partitioned(n, "a", "c") {
		t.Fatal("partition sides disagree with the plan")
	}

	n.Heal()
	if _, err := clientVia(n, "a").Get(srvB.URL); err != nil {
		t.Fatalf("healed wire failed: %v", err)
	}
	if hitsA.Load() != 1 || hitsB.Load() != 1 {
		t.Fatalf("hits A=%d B=%d, want 1 each", hitsA.Load(), hitsB.Load())
	}
	if n.Counters().Partition != 2 {
		t.Fatalf("partition counter %d, want 2", n.Counters().Partition)
	}
}

func TestDelayRule(t *testing.T) {
	srv, _ := testTarget(t)
	n := NewNetwork(1)
	n.Register("n2", srv.URL)
	n.SetRule(Wildcard, "n2", Rule{Delay: 60 * time.Millisecond})

	start := time.Now()
	if _, err := clientVia(n, "n1").Get(srv.URL); err != nil {
		t.Fatal(err)
	}
	// Jitter is ±50%, so 30ms is the floor.
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("delayed call took %s, want ≥ 30ms", d)
	}
	if n.Counters().Delayed != 1 {
		t.Fatalf("delayed counter %d", n.Counters().Delayed)
	}
}

func TestDuplicateDeliversTwice(t *testing.T) {
	srv, hits := testTarget(t)
	n := NewNetwork(1)
	n.Register("n2", srv.URL)
	n.SetRule("n1", "n2", Rule{Duplicate: 1})

	resp, err := clientVia(n, "n1").Post(srv.URL, "application/json", bytes.NewReader([]byte(`{"x":1}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hits.Load() != 2 {
		t.Fatalf("server saw %d deliveries, want 2", hits.Load())
	}
	if n.Counters().Duplicated != 1 {
		t.Fatalf("duplicated counter %d, want 1", n.Counters().Duplicated)
	}
}

func TestRulePrecedence(t *testing.T) {
	srv, hits := testTarget(t)
	n := NewNetwork(1)
	n.Register("n2", srv.URL)
	// Wildcard drops everything, but the specific pair is clean-ish
	// (tiny delay only) and must win.
	n.SetRule(Wildcard, Wildcard, Rule{Drop: 1})
	n.SetRule("n1", "n2", Rule{Delay: time.Millisecond})

	if _, err := clientVia(n, "n1").Get(srv.URL); err != nil {
		t.Fatalf("specific rule did not override wildcard: %v", err)
	}
	if _, err := clientVia(n, "nX").Get(srv.URL); err == nil {
		t.Fatal("wildcard drop did not apply to other sources")
	}
	if hits.Load() != 1 {
		t.Fatalf("hits=%d, want 1", hits.Load())
	}
}

func TestDeterministicSchedule(t *testing.T) {
	// Two networks with the same seed must make identical drop choices.
	run := func(seed int64) []bool {
		srv, _ := testTarget(t)
		n := NewNetwork(seed)
		n.Register("n2", srv.URL)
		n.SetRule("n1", "n2", Rule{Drop: 0.5})
		cl := clientVia(n, "n1")
		out := make([]bool, 40)
		for i := range out {
			_, err := cl.Get(srv.URL)
			out[i] = err == nil
		}
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at request %d", i)
		}
	}
}

func TestUnregisteredHostPassesThrough(t *testing.T) {
	srv, hits := testTarget(t)
	n := NewNetwork(1)
	n.SetRule("n1", "n2", Rule{Drop: 1}) // names nobody we call
	if _, err := clientVia(n, "n1").Get(srv.URL); err != nil {
		t.Fatalf("unmatched traffic shaped: %v", err)
	}
	if hits.Load() != 1 {
		t.Fatal("request did not arrive")
	}
}

func TestConcurrentTrafficAndReplanning(t *testing.T) {
	srv, _ := testTarget(t)
	n := NewNetwork(7)
	n.Register("n2", srv.URL)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // replanner
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			switch i % 3 {
			case 0:
				n.SetRule("n1", "n2", Rule{Drop: 0.3})
			case 1:
				n.Partition([]string{"n2"})
			case 2:
				n.Heal()
				n.ClearRules()
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := clientVia(n, "n1")
			for i := 0; i < 50; i++ {
				resp, err := cl.Get(srv.URL)
				if err == nil {
					resp.Body.Close()
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
}
