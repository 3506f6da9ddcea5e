package cluster

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/resource"
)

// Fleet is an in-process loopback federation: every member is a Node
// serving real HTTP on its own 127.0.0.1 port. It is the one way the
// selftest harness and this package's tests run a federation, so the
// environment the nodes run in is built here and nowhere else.
type Fleet struct {
	// Members lists every slot in start order, the seeds first. A slot
	// keeps its index when its member is killed and restarted.
	Members []*Member
	// setup fills everything of a member's Config but Self, Peers and
	// Join, which the fleet fills first.
	setup func(m *Member, c *Config)
}

// Member is one node slot of a fleet. Its Peer is the roster entry the
// node started under: a seed's share of the locations, none for a
// joiner, and the URL of its current port.
type Member struct {
	Peer
	Node *Node
	// Log is the slot's event-log sink, kept across restarts; setup
	// wires it into the node's Observer. It may be read while the node
	// runs.
	Log   *syncLog
	http  *http.Server
	alive bool
}

// StartFleet boots n seed members, n1…nN, owning PartitionLocations(locs,
// n). Every listener opens before any node starts, so each seed's roster
// names every peer's URL.
func StartFleet(n int, locs []resource.Location, setup func(m *Member, c *Config)) (*Fleet, error) {
	f := &Fleet{setup: setup}
	parts := PartitionLocations(locs, n)
	lns := make([]net.Listener, n)
	peers := make([]Peer, n)
	for i := range peers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i] = ln
		peers[i] = Peer{ID: fmt.Sprintf("n%d", i+1), URL: "http://" + ln.Addr().String(), Locations: parts[i]}
	}
	for i, p := range peers {
		m := &Member{Peer: p, Log: &syncLog{}}
		f.Members = append(f.Members, m)
		if err := f.start(m, lns[i], peers, false); err != nil {
			f.Stop()
			return nil, err
		}
	}
	return f, nil
}

// start runs a fresh node in slot m, serving on ln: a seed member of
// peers, or a blank joiner when join is set.
func (f *Fleet) start(m *Member, ln net.Listener, peers []Peer, join bool) error {
	c := Config{Self: m.ID, Peers: peers, Join: join}
	f.setup(m, &c)
	nd, err := New(c)
	if err != nil {
		ln.Close()
		return err
	}
	m.Node, m.http, m.alive = nd, &http.Server{Handler: nd}, true
	go func() { _ = m.http.Serve(ln) }()
	return nil
}

// joiner starts a blank Join-mode node, owning nothing and not yet
// joined, on a new port: in the dead slot of that ID if there is one (a
// restart), else in a new slot.
func (f *Fleet) joiner(id string) (*Member, error) {
	var m *Member
	for _, old := range f.Members {
		if old.ID == id && !old.alive {
			m = old
		}
	}
	if m == nil {
		m = &Member{Peer: Peer{ID: id}, Log: &syncLog{}}
		f.Members = append(f.Members, m)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	m.Peer = Peer{ID: id, URL: "http://" + ln.Addr().String()}
	return m, f.start(m, ln, []Peer{m.Peer}, true)
}

// Join starts a joiner in slot id (see joiner) and joins it to the
// federation through the member at via, asking for pins.
func (f *Fleet) Join(id, via string, pins []resource.Location) (*Member, error) {
	m, err := f.joiner(id)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return m, m.Node.JoinCluster(ctx, via, pins)
}

// Kill stops a member dead: inbound first, then outbound. A node that
// only lost its listener keeps gossiping, gets fenced, and rejoins.
func (m *Member) Kill() error {
	m.alive = false
	m.http.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return m.Node.Shutdown(ctx)
}

// Stop kills every live member.
func (f *Fleet) Stop() {
	for _, m := range f.Live() {
		_ = m.Kill()
	}
}

// Live lists the members currently running.
func (f *Fleet) Live() []*Member {
	var out []*Member
	for _, m := range f.Members {
		if m.alive {
			out = append(out, m)
		}
	}
	return out
}

// Nodes lists the running members' nodes.
func (f *Fleet) Nodes() []*Node {
	var out []*Node
	for _, m := range f.Live() {
		out = append(out, m.Node)
	}
	return out
}

// URLs lists the running members' base URLs.
func (f *Fleet) URLs() []string {
	var out []string
	for _, m := range f.Live() {
		out = append(out, m.URL)
	}
	return out
}

// WaitFor polls cond every 10ms until it holds (true) or timeout passes
// (false).
func WaitFor(timeout time.Duration, cond func() bool) bool {
	for deadline := time.Now().Add(timeout); !cond(); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// WaitDetectorsWarm blocks until every member's φ detector holds at
// least 3 inter-arrival observations of every other member: the
// baseline without which silence carries no suspicion, so no failure
// may be staged before it.
func WaitDetectorsWarm(ms []*Member, timeout time.Duration) error {
	var cold string
	if WaitFor(timeout, func() bool {
		for _, m := range ms {
			samples := make(map[string]int)
			for _, ph := range m.Node.Stats().Health.Peers {
				samples[ph.Peer] = ph.Samples
			}
			for _, other := range ms {
				if other.ID != m.ID && samples[other.ID] < 3 {
					cold = fmt.Sprintf("%s has %d samples for %s", m.ID, samples[other.ID], other.ID)
					return false
				}
			}
		}
		return true
	}) {
		return nil
	}
	return fmt.Errorf("failure detectors never warmed within %s (%s)", timeout, cold)
}

// Homes counts how many of the nodes' ledgers hold the commitment name:
// exactly 1 for anything that survived a handoff or a failover intact.
func Homes(nodes []*Node, name string) int {
	homes := 0
	for _, nd := range nodes {
		if _, ok := nd.Server().Ledger().Commitment(name); ok {
			homes++
		}
	}
	return homes
}

// syncLog is a concurrency-safe log sink: a node's Observer writes
// under its own lock, and the reader may read while the node runs.
type syncLog struct {
	mu  sync.Mutex
	buf []byte
}

func (l *syncLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf = append(l.buf, p...)
	return len(p), nil
}

func (l *syncLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return string(l.buf)
}
