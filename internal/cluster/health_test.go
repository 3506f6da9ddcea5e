package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/fault"
	"repro/internal/interval"
	"repro/internal/membership"
	"repro/internal/obs"
	"repro/internal/resource"
	"repro/internal/server"
)

// newHealthCluster boots a federation like newTestCluster but with the
// failure detector armed for automatic eviction: fast gossip, low φ
// thresholds, and any extra per-node Config tweaks from mutate.
func newHealthCluster(t testing.TB, nNodes, locsPerNode int, mutate func(i int, c *Config)) *testCluster {
	t.Helper()
	var locs []resource.Location
	for i := 0; i < nNodes*locsPerNode; i++ {
		locs = append(locs, resource.Location(fmt.Sprintf("l%d", i+1)))
	}
	var theta resource.Set
	for _, loc := range locs {
		theta.Add(resource.NewTerm(resource.FromUnits(8), resource.CPUAt(loc), interval.New(0, 10000)))
	}
	parts := PartitionLocations(locs, nNodes)
	tc := &testCluster{}
	listeners := make([]net.Listener, nNodes)
	for i := 0; i < nNodes; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		url := "http://" + ln.Addr().String()
		tc.urls = append(tc.urls, url)
		tc.peers = append(tc.peers, Peer{ID: fmt.Sprintf("n%d", i+1), URL: url, Locations: parts[i]})
	}
	tc.httpSrvs = make([]*http.Server, nNodes)
	for i := 0; i < nNodes; i++ {
		buf := &bytes.Buffer{}
		tc.logs = append(tc.logs, buf)
		cfg := Config{
			Self:           tc.peers[i].ID,
			Peers:          tc.peers,
			Server:         server.Config{Policy: &admission.Rota{}, Theta: theta},
			LeaseTTL:       50,
			GossipInterval: 40 * time.Millisecond,
			RPCTimeout:     500 * time.Millisecond,
			RPCRetries:     1,
			SuspectPhi:     6,
			EvictPhi:       9,
			Obs:            obs.New(obs.Options{Log: buf, Node: tc.peers[i].ID}),
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		nd, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tc.nodes = append(tc.nodes, nd)
		tc.httpSrvs[i] = &http.Server{Handler: nd}
		go func(i int) { _ = tc.httpSrvs[i].Serve(listeners[i]) }(i)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for i := range tc.nodes {
			_ = tc.nodes[i].Shutdown(ctx)
			_ = tc.httpSrvs[i].Shutdown(ctx)
		}
	})
	return tc
}

// waitDetectorWarm blocks until every node's φ detector has a baseline
// (MinSamples inter-arrival observations) for every other node. Silence
// before that is indistinguishable from a peer that never spoke, so
// tests must not stage failures against a cold detector.
func waitDetectorWarm(t testing.TB, nodes []*Node, ids []string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		warm := true
		for i, nd := range nodes {
			samples := make(map[string]int)
			for _, ph := range nd.Stats().Health.Peers {
				samples[ph.Peer] = ph.Samples
			}
			for j, id := range ids {
				if j != i && samples[id] < 3 {
					warm = false
				}
			}
		}
		if warm {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("failure detectors never warmed within %s", timeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// kill hard-stops node i: listener closed, gossip loop drained — the
// silence a crashed process would leave.
func (tc *testCluster) kill(t testing.TB, i int) {
	t.Helper()
	tc.httpSrvs[i].Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := tc.nodes[i].Shutdown(ctx); err != nil {
		t.Fatalf("killing %s: %v", tc.peers[i].ID, err)
	}
}

// waitGone blocks until the victim is out of every listed node's table.
func waitGone(t testing.TB, nodes []*Node, victim string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		gone := true
		for _, nd := range nodes {
			if _, ok := nd.Table().Member(victim); ok {
				gone = false
				break
			}
		}
		if gone {
			return
		}
		if time.Now().After(deadline) {
			for _, nd := range nodes {
				st := nd.Stats()
				t.Logf("%s: epoch=%d suspected=%d evictions=%d health=%+v",
					st.Node, st.Cluster.MembershipEpoch, st.Cluster.SuspectedPeers, st.Cluster.AutoEvictions, st.Health.Peers)
			}
			t.Fatalf("%s never auto-evicted within %s", victim, timeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestAutoEvictionOnSilence: killing a node must lead, with no operator
// action, to quorum agreement and a stewarded force-leave; the victim's
// committed reservation survives on the promoted standby.
func TestAutoEvictionOnSilence(t *testing.T) {
	tc := newHealthCluster(t, 3, 2, nil)
	victim := 2
	vloc := tc.peers[victim].Locations[0]

	// A committed reservation on the victim, shipped to its standby.
	job := pinnedJob(t, "evict-seed", vloc, 5000)
	status, body := post(t, tc.urls[0]+"/v1/admit", job, nil)
	if status != http.StatusOK {
		t.Fatalf("seeding victim: %d: %s", status, body)
	}
	standbyID := tc.nodes[0].Table().StandbyOf(vloc)
	var standby *Node
	for i, p := range tc.peers {
		if p.ID == standbyID {
			standby = tc.nodes[i]
		}
	}
	if standby == nil || standbyID == tc.peers[victim].ID {
		t.Fatalf("standby of %s is %q; want a survivor", vloc, standbyID)
	}
	waitFor(t, 5*time.Second, "standby shadow warm", func() bool {
		cms, _, ok := standby.ShadowFor(vloc)
		return ok && cms >= 1
	})

	waitDetectorWarm(t, tc.nodes, []string{"n1", "n2", "n3"}, 10*time.Second)
	tc.kill(t, victim)
	survivors := []*Node{tc.nodes[0], tc.nodes[1]}
	waitGone(t, survivors, tc.peers[victim].ID, 30*time.Second)

	// Ownership moved to the standby; the seed survived.
	for _, nd := range survivors {
		owner, ok := nd.Table().OwnerOf(vloc)
		if !ok || owner == tc.peers[victim].ID {
			t.Fatalf("%s still owned by the dead node (%q, ok=%v)", vloc, owner, ok)
		}
	}
	if _, ok := standby.Server().Ledger().Commitment("evict-seed"); !ok {
		t.Fatal("committed reservation lost in automatic failover")
	}
	var evictions uint64
	for _, nd := range survivors {
		evictions += nd.Stats().Cluster.AutoEvictions
	}
	if evictions != 1 {
		t.Fatalf("auto evictions = %d, want exactly 1 (deterministic steward election)", evictions)
	}
	for _, nd := range survivors {
		if err := nd.Server().Ledger().Audit(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEvenSplitNoMutualEviction: the split-brain shape the quorum rule
// must refuse. A 2|2 partition of a 4-node cluster gives each half as
// many accusers (2) as it has survivors — a majority of the survivors,
// which an earlier survivors-based quorum would have accepted on BOTH
// sides, producing two live clusters admitting against the same
// capacity. Against the full-roster quorum (4/2+1 = 3) the tie must
// stall: both halves hold the far side dead yet evict nobody, and after
// the heal the cluster is still one 4-member table with zero evictions
// and zero fence-triggered rejoins anywhere.
func TestEvenSplitNoMutualEviction(t *testing.T) {
	fnet := fault.NewNetwork(1)
	tc := newHealthCluster(t, 4, 1, func(i int, c *Config) {
		if i == 0 {
			for _, p := range c.Peers {
				fnet.Register(p.ID, p.URL)
			}
		}
		c.Transport = fnet.Transport(c.Self, nil)
	})
	ids := []string{"n1", "n2", "n3", "n4"}
	waitDetectorWarm(t, tc.nodes, ids, 10*time.Second)

	fnet.Partition([]string{"n3", "n4"}) // {n1,n2} | {n3,n4}

	// Each side must actually reach Dead verdicts on the far side — the
	// test only proves the quorum rule holds if detection fired.
	far := map[int][]string{0: {"n3", "n4"}, 1: {"n3", "n4"}, 2: {"n1", "n2"}, 3: {"n1", "n2"}}
	for i, nd := range tc.nodes {
		nd, want := nd, far[i]
		waitFor(t, 30*time.Second, fmt.Sprintf("%s holds the far side dead", tc.peers[i].ID), func() bool {
			dead := make(map[string]bool)
			for _, ph := range nd.Stats().Health.Peers {
				if ph.State == "dead" {
					dead[ph.Peer] = true
				}
			}
			return dead[want[0]] && dead[want[1]]
		})
	}

	// Many health ticks with both sides stuck at 2 accusers against a
	// quorum of 3: nobody may be evicted, in either direction.
	time.Sleep(1 * time.Second)
	for i, nd := range tc.nodes {
		if got := len(nd.Table().Members); got != 4 {
			t.Fatalf("%s: roster shrank to %d members during an even split — mutual eviction", tc.peers[i].ID, got)
		}
		if ev := nd.Stats().Cluster.AutoEvictions; ev != 0 {
			t.Fatalf("%s stewarded %d auto-evictions during an even split, want 0", tc.peers[i].ID, ev)
		}
	}

	fnet.Heal()
	waitFor(t, 30*time.Second, "cluster reunites with no suspects", func() bool {
		for _, nd := range tc.nodes {
			if nd.Stats().Cluster.SuspectedPeers != 0 || len(nd.Table().Members) != 4 {
				return false
			}
		}
		return true
	})
	for i, nd := range tc.nodes {
		st := nd.Stats()
		if st.Cluster.AutoEvictions != 0 || st.Cluster.Rejoins != 0 {
			t.Fatalf("%s: evictions=%d rejoins=%d after heal, want 0/0 (a tied split must stall, not fail over)",
				tc.peers[i].ID, st.Cluster.AutoEvictions, st.Cluster.Rejoins)
		}
		if err := nd.Server().Ledger().Audit(); err != nil {
			t.Fatal(err)
		}
	}
}

// waitFor polls cond until true or the timeout trips.
func waitFor(t testing.TB, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: never happened within %s", what, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// The owned probe escapes its query: a peer owning locations whose names
// carry a space or a query metacharacter is reported as owning each of
// them, not answered with a 400 or misread.
func TestOwnedProbeEscapesLocations(t *testing.T) {
	odd := []resource.Location{"l 1", "a+b", "x#y", "p&q"}
	newNode := func(self string, peers []Peer) *Node {
		t.Helper()
		nd, err := New(Config{Self: self, Peers: peers, GossipInterval: -1, RPCRetries: -1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = nd.Shutdown(context.Background()) })
		return nd
	}
	n1 := Peer{ID: "n1", URL: "http://127.0.0.1:1", Locations: []resource.Location{"l1"}}
	n2 := Peer{ID: "n2", URL: "http://127.0.0.1:1", Locations: odd}
	peer := httptest.NewServer(newNode("n2", []Peer{n1, n2}))
	t.Cleanup(peer.Close)
	n2.URL = peer.URL
	prober := newNode("n1", []Peer{n1, n2})

	owned, err := prober.rpcOwned(context.Background(), membership.Member{ID: "n2", URL: peer.URL}, odd)
	if err != nil {
		t.Fatal(err)
	}
	for _, loc := range odd {
		if !owned[loc] {
			t.Errorf("the probe reports n2 not owning %q; owned = %v", loc, owned)
		}
	}
	if len(owned) != len(odd) {
		t.Errorf("owned = %v, want exactly %v", owned, odd)
	}
}

// hang replaces node i with a listener that accepts connections and
// never answers: the peer that is neither alive nor refusing, whose
// every call runs to its deadline.
func (tc *testCluster) hang(t testing.TB, i int) {
	t.Helper()
	addr := strings.TrimPrefix(tc.urls[i], "http://")
	tc.kill(t, i)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("re-listening on %s: %v", addr, err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	})
}

// TestHungMemberSilencesNoOne: a member that accepts connections but
// never answers costs the others nothing. Each gossip call and shadow
// shipment runs under its own deadline, so no live member misses a
// tick's gossip and is ever suspected, and the hung member is evicted
// about as fast as a crashed one.
func TestHungMemberSilencesNoOne(t *testing.T) {
	tc := newHealthCluster(t, 5, 2, nil)
	waitDetectorWarm(t, tc.nodes, []string{"n1", "n2", "n3", "n4", "n5"}, 10*time.Second)
	tc.hang(t, 1)
	live := []*Node{tc.nodes[0], tc.nodes[2], tc.nodes[3], tc.nodes[4]}
	start := time.Now()
	var evicted time.Duration
	for evicted == 0 || time.Since(start) < evicted+time.Second {
		for _, nd := range live {
			for _, ph := range nd.Stats().Health.Peers {
				if ph.Peer != "n2" && ph.State != "alive" {
					t.Fatalf("%s holds the live %s %s (phi %.1f) %s after n2 hung",
						nd.ID(), ph.Peer, ph.State, ph.Phi, time.Since(start).Round(time.Millisecond))
				}
			}
		}
		if evicted == 0 {
			gone := true
			for _, nd := range live {
				if _, ok := nd.Table().Member("n2"); ok {
					gone = false
				}
			}
			if gone {
				evicted = time.Since(start)
			} else if time.Since(start) > 3*time.Second {
				t.Fatal("the hung n2 was not evicted within 3s")
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Logf("hung n2 evicted %s after it hung", evicted.Round(time.Millisecond))
}

// TestShadowShipmentRetriedAfterPartition: a shadow shipment lost to a
// partition is sent again once the standby is reachable, with the
// ledger idle — a standby counts as fed only once a shipment succeeds.
func TestShadowShipmentRetriedAfterPartition(t *testing.T) {
	fnet := fault.NewNetwork(1)
	tc := newHealthCluster(t, 3, 2, func(i int, c *Config) {
		if i == 0 {
			for _, p := range c.Peers {
				fnet.Register(p.ID, p.URL)
			}
		}
		c.Transport = fnet.Transport(c.Self, nil)
		c.EvictPhi = 0 // the partition must not evict the standby
	})
	var loc resource.Location
	for _, l := range tc.peers[0].Locations {
		if tc.nodes[0].Table().StandbyOf(l) == "n2" {
			loc = l
		}
	}
	if loc == "" {
		t.Skip("no location of n1 has n2 as standby under this rendezvous layout")
	}
	fnet.Partition([]string{"n2"})
	if status, body := post(t, tc.urls[0]+"/v1/admit", pinnedJob(t, "shadow-seed", loc, 5000), nil); status != http.StatusOK {
		t.Fatalf("admit on %s: %d: %s", loc, status, body)
	}
	time.Sleep(300 * time.Millisecond) // several ticks' shipments, all cut
	if _, _, ok := tc.nodes[1].ShadowFor(loc); ok {
		t.Fatal("n2 received a shadow across the partition")
	}
	fnet.Heal()
	waitFor(t, 2*time.Second, "shadow of "+string(loc)+" on n2 after the heal", func() bool {
		cms, _, ok := tc.nodes[1].ShadowFor(loc)
		return ok && cms == 1
	})
}
