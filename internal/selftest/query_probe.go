package selftest

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	neturl "net/url"
	"strings"
	"time"

	"repro/internal/interval"
	"repro/internal/query"
	"repro/internal/resource"
	"repro/internal/server"
)

// The selftests' query probes: a standing /v1/watch subscription must see
// verdict flips caused by a reservation landing, a release, a leased
// hold arriving, and a lease expiring — each within one ledger epoch —
// and one-shot GET/POST verdicts must agree. The cluster selftest adds
// the fan-out equivalence check (a spanning query's verdict equals a
// single merged-ledger evaluation) and a flip driven by a coordinated
// admission submitted through a different node.

// watcher is a minimal SSE client for /v1/watch: events are pumped into
// a channel so probes can wait for the next one with a deadline.
type watcher struct {
	resp   *http.Response
	events chan query.Event
	errc   chan error
}

// openWatch subscribes to a standing query on the daemon. The stream
// uses its own timeout-free client: an http.Client deadline would cover
// the whole stream, not each event.
func openWatch(baseURL, q string) (*watcher, error) {
	req, err := http.NewRequest(http.MethodGet, baseURL+"/v1/watch?q="+neturl.QueryEscape(q), nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		return nil, fmt.Errorf("watch %q returned %d: %s", q, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	w := &watcher{resp: resp, events: make(chan query.Event, 16), errc: make(chan error, 1)}
	go func() {
		defer close(w.events)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var ev query.Event
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				w.errc <- fmt.Errorf("watch %q sent unparsable event %q: %w", q, line, err)
				return
			}
			w.events <- ev
		}
	}()
	return w, nil
}

// next waits for the next verdict event.
func (w *watcher) next(timeout time.Duration) (query.Event, error) {
	select {
	case ev, ok := <-w.events:
		if !ok {
			select {
			case err := <-w.errc:
				return query.Event{}, err
			default:
				return query.Event{}, fmt.Errorf("watch stream closed")
			}
		}
		return ev, nil
	case err := <-w.errc:
		return query.Event{}, err
	case <-time.After(timeout):
		return query.Event{}, fmt.Errorf("no verdict event within %v", timeout)
	}
}

func (w *watcher) close() { w.resp.Body.Close() }

// expectFlip waits for the next event and asserts its verdict and the
// epoch-bump reason(s) that may legitimately have caused it. Multiple
// reasons cover coalescing: a sweep triggered by one bump can observe
// ledger state that a later bump already changed.
func (w *watcher) expectFlip(holds bool, reasons ...string) error {
	ev, err := w.next(5 * time.Second)
	if err != nil {
		return err
	}
	ok := false
	for _, r := range reasons {
		ok = ok || ev.Reason == r
	}
	if ev.Holds != holds || !ok {
		return fmt.Errorf("got flip (holds=%v, reason=%q), want (holds=%v, reason in %q)",
			ev.Holds, ev.Reason, holds, reasons)
	}
	return nil
}

// runQueryProbe drives the single-node selftest's query sequence against a
// live daemon: one-shot GET/POST agreement, a watch flipped by an
// admission landing and its release, and a watch flipped by a leased
// hold and its expiry sweep.
func runQueryProbe(ctx context.Context, httpc *http.Client, baseURL string, loc resource.Location) error {
	// One-shot: the GET text form and the POST wire form must agree.
	q := fmt.Sprintf("holds(%s, cpu>=1, next 10)", loc)
	getResp, err := queryVerdict(ctx, httpc, baseURL, q)
	if err != nil {
		return err
	}
	status, data, err := postJSON(ctx, httpc, baseURL+"/v1/query", server.QueryRequest{Query: q})
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("POST query: status %d, err %v", status, err)
	}
	var postResp server.QueryResponse
	if err := json.Unmarshal(data, &postResp); err != nil {
		return fmt.Errorf("POST query body unparsable: %w", err)
	}
	if getResp.Holds != postResp.Holds || getResp.Query != postResp.Query {
		return fmt.Errorf("GET and POST verdicts disagree: %+v vs %+v", getResp, postResp)
	}

	// Flip by reservation: a standing feasibility query over a job that
	// does not exist yet flips when its admission lands, and back when
	// it is released.
	const jobName = "probe-query"
	w, err := openWatch(baseURL, fmt.Sprintf("feasible(%s)", jobName))
	if err != nil {
		return err
	}
	defer w.close()
	ev, err := w.next(5 * time.Second)
	if err != nil {
		return fmt.Errorf("initial verdict: %w", err)
	}
	if ev.Holds || ev.Reason != "subscribe" {
		return fmt.Errorf("initial verdict should be (false, subscribe), got (%v, %q)", ev.Holds, ev.Reason)
	}
	job, err := probeJob(jobName, 0, loc)
	if err != nil {
		return err
	}
	if status, data, err := postJSON(ctx, httpc, baseURL+"/v1/admit", job); err != nil || status != http.StatusOK {
		return fmt.Errorf("probe admit: status %d, err %v, body %s", status, err, strings.TrimSpace(string(data)))
	}
	if err := w.expectFlip(true, "reserve"); err != nil {
		return fmt.Errorf("reservation flip: %w", err)
	}
	if status, _, err := postJSON(ctx, httpc, baseURL+"/v1/release", map[string]string{"name": jobName}); err != nil || status != http.StatusOK {
		return fmt.Errorf("probe release: status %d, err %v", status, err)
	}
	if err := w.expectFlip(false, "release"); err != nil {
		return fmt.Errorf("release flip: %w", err)
	}

	// Flip by lease expiry: fresh capacity at a probe-only location, a
	// standing availability query over it, a leased hold that consumes
	// it, and the advance whose sweep gives it back.
	const probeLoc = "lq-probe"
	var extra resource.Set
	extra.Add(resource.NewTerm(resource.FromUnits(4), resource.CPUAt(probeLoc), interval.New(0, horizon)))
	if status, _, err := postJSON(ctx, httpc, baseURL+"/v1/acquire", map[string]string{"theta": extra.Compact()}); err != nil || status != http.StatusOK {
		return fmt.Errorf("probe acquire: status %d, err %v", status, err)
	}
	lw, err := openWatch(baseURL, fmt.Sprintf("holds(%s, cpu>=4, always, next 20)", probeLoc))
	if err != nil {
		return err
	}
	defer lw.close()
	if ev, err := lw.next(5 * time.Second); err != nil || !ev.Holds {
		return fmt.Errorf("lease probe initial verdict: holds=%v err=%v", ev.Holds, err)
	}
	hold := server.PrepareRequest{
		Key:    "probe-lease-key",
		Name:   "probe-lease",
		Demand: extra.Compact(),
		Finish: horizon, Deadline: horizon, Expiry: 20,
	}
	if status, data, err := postJSON(ctx, httpc, baseURL+"/v1/cluster/prepare", hold); err != nil || status != http.StatusOK {
		return fmt.Errorf("probe prepare: status %d, err %v, body %s", status, err, strings.TrimSpace(string(data)))
	}
	if err := lw.expectFlip(false, "prepare"); err != nil {
		return fmt.Errorf("hold flip: %w", err)
	}
	// Advance past the lease expiry: the sweep reclaims the hold and the
	// verdict flips back in the same epoch bump as the advance.
	if status, _, err := postJSON(ctx, httpc, baseURL+"/v1/advance", map[string]any{"now": 30}); err != nil || status != http.StatusOK {
		return fmt.Errorf("probe advance: status %d, err %v", status, err)
	}
	if err := lw.expectFlip(true, "advance"); err != nil {
		return fmt.Errorf("lease-expiry flip: %w", err)
	}
	return nil
}

// runClusterQueryProbe drives the cluster selftest's query probes: fan-out
// equivalence against a hand-merged free view, and a watch on one node
// flipped by a coordinated admission submitted through another.
func runClusterQueryProbe(ctx context.Context, httpc *http.Client, peers []peerProbe, start interval.Time) error {
	if len(peers) < 2 {
		return fmt.Errorf("cluster query probe needs 2 peers, got %d", len(peers))
	}
	a, b := peers[0], peers[1]
	q := fmt.Sprintf("holds(%s, cpu>=1, next 20) and holds(%s, cpu>=1, next 20)", a.loc, b.loc)

	// Fan-out verdict from node a (whose ledger does not own b.loc).
	fanout, err := queryVerdict(ctx, httpc, a.url, q)
	if err != nil {
		return fmt.Errorf("fan-out query: %w", err)
	}

	// The same verdict, computed here from the owners' free views — the
	// single merged-ledger evaluation the fan-out must equal.
	c, err := query.ParseText(q)
	if err != nil {
		return err
	}
	var free resource.Set
	var now interval.Time
	for _, p := range []peerProbe{a, b} {
		var fr server.FreeResponse
		if err := GetJSON(ctx, httpc, p.url+"/v1/cluster/free?locs="+string(p.loc), &fr); err != nil {
			return fmt.Errorf("free view from %s: %w", p.url, err)
		}
		set, err := resource.ParseSet(fr.Free)
		if err != nil {
			return err
		}
		free = free.Union(set)
		if fr.Now > now {
			now = fr.Now
		}
	}
	merged, err := c.Evaluate(query.Snapshot{Now: now, Free: free})
	if err != nil {
		return err
	}
	if fanout.Holds != merged.Holds {
		return fmt.Errorf("fan-out verdict %v != merged-ledger verdict %v for %q", fanout.Holds, merged.Holds, q)
	}

	// A watch on node a flipped by a spanning admission submitted via the
	// LAST node: the coordination prepares and commits on a's ledger, and
	// a's standing query must see the flip.
	const jobName = "probe-cluster-query"
	w, err := openWatch(a.url, fmt.Sprintf("feasible(%s)", jobName))
	if err != nil {
		return err
	}
	defer w.close()
	if ev, err := w.next(5 * time.Second); err != nil || ev.Holds {
		return fmt.Errorf("cluster watch initial verdict: holds=%v err=%v", ev.Holds, err)
	}
	job, err := probeJob(jobName, start, a.loc, b.loc)
	if err != nil {
		return err
	}
	coord := peers[len(peers)-1]
	if ok, status, data, err := admitted(ctx, httpc, coord.url, job); !ok {
		return fmt.Errorf("spanning admit via %s not admitted: status %d, err %v, body %s", coord.url, status, err, strings.TrimSpace(string(data)))
	}
	// The hold lands ("prepare") and then commits ("commit"); feasible()
	// resolves the name once the commitment exists, so the flip arrives
	// with the commit's epoch bump — or with a gossip-triggered
	// re-evaluation if a peer's ledger-epoch broadcast lands first.
	if err := w.expectFlip(true, "prepare", "commit", "gossip"); err != nil {
		return fmt.Errorf("cross-node commit flip: %w", err)
	}
	if status, _, err := postJSON(ctx, httpc, coord.url+"/v1/release", map[string]string{"name": jobName}); err != nil || status != http.StatusOK {
		return fmt.Errorf("releasing %s: status %d, err %v", jobName, status, err)
	}
	if err := w.expectFlip(false, "release", "gossip"); err != nil {
		return fmt.Errorf("cross-node release flip: %w", err)
	}
	return nil
}

// peerProbe is one node's URL plus a location it owns.
type peerProbe struct {
	url string
	loc resource.Location
}
