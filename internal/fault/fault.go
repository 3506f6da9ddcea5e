// Package fault is a deterministic fault-injection layer for the
// cluster's peer RPC path. A shared Network holds the fault plan —
// per-peer-pair drop/delay/duplicate rules and named partitions — and
// hands each node an http.RoundTripper that applies the plan to that
// node's outbound calls. Because injection happens at the transport, the
// whole retry/backoff/idempotency stack above it is exercised exactly as
// a flaky wire would exercise it, and the same binary runs clean when no
// Network is wired in (the zero cost of an absent transport).
//
// The paper's stance is that an open system must keep its promises under
// inputs it does not control; this package is the machinery that
// manufactures those inputs on demand, reproducibly (seeded RNG), so the
// detection → eviction → repair pipeline is continuously testable
// instead of hand-probed.
package fault

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"
)

// Rule shapes traffic from one peer to another. Zero value = clean wire.
type Rule struct {
	// Drop is the probability [0,1] that a request vanishes: the caller
	// sees a transport error, the receiver never sees the request.
	Drop float64
	// Delay is added before the request is sent, up to ±50% jitter.
	Delay time.Duration
	// Duplicate is the probability [0,1] that the request is delivered
	// twice (the second response is discarded) — the classic at-least-
	// once hazard that idempotency keys must absorb.
	Duplicate float64
}

func (r Rule) clean() bool { return r.Drop == 0 && r.Delay == 0 && r.Duplicate == 0 }

// Wildcard matches any peer in a rule key.
const Wildcard = "*"

// Counters is a snapshot of what the network has done so far.
type Counters struct {
	Passed     int64 `json:"passed"`
	Dropped    int64 `json:"dropped"`
	Delayed    int64 `json:"delayed"`
	Duplicated int64 `json:"duplicated"`
	Partition  int64 `json:"partitioned"` // drops due to a partition
}

// DropError is the transport error surfaced for an injected drop or
// partition; it unwraps to nothing and is retryable by design.
type DropError struct {
	Src, Dst  string
	Partition bool
}

func (e *DropError) Error() string {
	kind := "drop"
	if e.Partition {
		kind = "partition"
	}
	return fmt.Sprintf("fault: injected %s %s→%s", kind, e.Src, e.Dst)
}

type pair struct{ src, dst string }

// Network is the shared fault plan. One Network spans the whole test
// cluster; each node derives its transport from it. Safe for concurrent
// use; rule changes apply to in-flight traffic on the next request.
type Network struct {
	mu    sync.Mutex
	rng   *rand.Rand
	hosts map[string]string // "host:port" → node ID
	rules map[pair]Rule
	side  map[string]int // partition group per node; absent = group 0
	epoch int            // bumped on Heal so tests can await it

	passed, dropped, delayed, duplicated, partitioned atomic.Int64
}

// NewNetwork builds a fault plan with a deterministic RNG stream.
func NewNetwork(seed int64) *Network {
	return &Network{
		rng:   rand.New(rand.NewSource(seed)),
		hosts: make(map[string]string),
		rules: make(map[pair]Rule),
		side:  make(map[string]int),
	}
}

// Register maps a node's URL (or bare host:port) to its ID so rules can
// be written in terms of peer IDs rather than ephemeral ports.
func (n *Network) Register(id, nodeURL string) {
	host := nodeURL
	if u, err := url.Parse(nodeURL); err == nil && u.Host != "" {
		host = u.Host
	}
	n.mu.Lock()
	n.hosts[host] = id
	n.mu.Unlock()
}

// SetRule installs traffic shaping from src to dst (either may be
// Wildcard). A clean rule deletes the entry. Precedence at lookup:
// (src,dst) > (src,*) > (*,dst) > (*,*).
func (n *Network) SetRule(src, dst string, r Rule) {
	n.mu.Lock()
	if r.clean() {
		delete(n.rules, pair{src, dst})
	} else {
		n.rules[pair{src, dst}] = r
	}
	n.mu.Unlock()
}

// ClearRules removes all traffic-shaping rules (partitions persist).
func (n *Network) ClearRules() {
	n.mu.Lock()
	n.rules = make(map[pair]Rule)
	n.mu.Unlock()
}

// Partition splits the cluster into groups; traffic between different
// groups is dropped in both directions. Nodes not named stay in group 0,
// so Partition([]string{"n3"}) isolates n3 from everyone else.
func (n *Network) Partition(groups ...[]string) {
	n.mu.Lock()
	n.side = make(map[string]int)
	for i, g := range groups {
		for _, id := range g {
			n.side[id] = i + 1
		}
	}
	n.mu.Unlock()
}

// Heal removes all partitions.
func (n *Network) Heal() {
	n.mu.Lock()
	n.side = make(map[string]int)
	n.epoch++
	n.mu.Unlock()
}

// Counters returns the running injection totals.
func (n *Network) Counters() Counters {
	return Counters{
		Passed:     n.passed.Load(),
		Dropped:    n.dropped.Load(),
		Delayed:    n.delayed.Load(),
		Duplicated: n.duplicated.Load(),
		Partition:  n.partitioned.Load(),
	}
}

// plan resolves what should happen to one request: the effective rule
// and whether a partition blocks it outright.
func (n *Network) plan(src, dstHost string) (r Rule, dst string, cut bool, drop, dup float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	dst, ok := n.hosts[dstHost]
	if !ok {
		dst = dstHost // unregistered target: rules may still match by host
	}
	// Partitions only cut traffic between registered nodes. An
	// unregistered destination would implicitly land in group 0, and a
	// node assigned to any other group would then drop ALL traffic to
	// endpoints outside the cluster wire, not just to its peers.
	if ok && n.side[src] != n.side[dst] {
		return Rule{}, dst, true, 0, 0
	}
	for _, k := range [4]pair{{src, dst}, {src, Wildcard}, {Wildcard, dst}, {Wildcard, Wildcard}} {
		if rule, ok := n.rules[k]; ok {
			r = rule
			break
		}
	}
	if r.Drop > 0 {
		drop = n.rng.Float64()
	}
	if r.Duplicate > 0 {
		dup = n.rng.Float64()
	}
	return r, dst, false, drop, dup
}

// jitter returns d ± 50%, from the shared deterministic stream.
func (n *Network) jitter(d time.Duration) time.Duration {
	n.mu.Lock()
	defer n.mu.Unlock()
	return d/2 + time.Duration(n.rng.Int63n(int64(d)))
}

// Transport returns the fault-injecting RoundTripper for node src,
// wrapping base (nil base = http.DefaultTransport).
func (n *Network) Transport(src string, base http.RoundTripper) http.RoundTripper {
	if base == nil {
		base = http.DefaultTransport
	}
	return &transport{net: n, src: src, base: base}
}

type transport struct {
	net  *Network
	src  string
	base http.RoundTripper
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	rule, dst, cut, drop, dup := t.net.plan(t.src, req.URL.Host)
	if cut {
		t.net.partitioned.Add(1)
		return nil, &DropError{Src: t.src, Dst: dst, Partition: true}
	}
	if rule.Drop > 0 && drop < rule.Drop {
		t.net.dropped.Add(1)
		return nil, &DropError{Src: t.src, Dst: dst}
	}
	if rule.Delay > 0 {
		t.net.delayed.Add(1)
		select {
		case <-time.After(t.net.jitter(rule.Delay)):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	if rule.Duplicate > 0 && dup < rule.Duplicate {
		// Deliver the request twice; the duplicate's response is
		// discarded. GetBody (set by net/http for buffered bodies)
		// replays the payload for the second delivery.
		if req.Body == nil || req.GetBody != nil {
			shadow := req.Clone(req.Context())
			if req.GetBody != nil {
				body, err := req.GetBody()
				if err == nil {
					shadow.Body = body
					t.deliver(shadow)
					t.net.duplicated.Add(1)
				}
			} else {
				t.deliver(shadow)
				t.net.duplicated.Add(1)
			}
			if req.GetBody != nil {
				body, err := req.GetBody()
				if err != nil {
					return nil, err
				}
				req.Body = body
			}
		}
	}
	resp, err := t.base.RoundTrip(req)
	if err == nil {
		t.net.passed.Add(1)
	}
	return resp, err
}

// deliver sends the duplicate and discards its response.
func (t *transport) deliver(req *http.Request) {
	if resp, err := t.base.RoundTrip(req); err == nil {
		resp.Body.Close()
	}
}
