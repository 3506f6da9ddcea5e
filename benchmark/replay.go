package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/obs/assure"
	"repro/internal/query"
	"repro/internal/resource"
	"repro/internal/server"
	"repro/internal/workload"
)

// replayer performs the traced replay of a daemon workload with one
// client: every request of the stream is executed rung by rung on the
// live system, the ledger returning to its prior state between rungs
// (every admit is paired with its release).
type replayer struct {
	sys    *system
	twin   *system // same shape, span store and flight recorder detached
	tr     *tracer
	cli    *client
	cli2   *client // the second connection a parallel prepare round needs
	policy *admission.Rota
	asr    *assure.Ledger // detached promise ledger for the assure rung
	seq    int
	err    error // first harness-level failure
}

func (rp *replayer) fail(format string, args ...any) {
	if rp.err == nil {
		rp.err = fmt.Errorf(format, args...)
	}
}

// serve calls a handler directly — no socket, no net/http server — and
// returns the recorder. The request is built outside the timed rung.
func serve(h http.Handler, method, path string, body []byte) func() *httptest.ResponseRecorder {
	req, _ := http.NewRequest(method, "http://bench"+path, bytes.NewReader(body)) // constant, well-formed URL
	rec := httptest.NewRecorder()
	return func() *httptest.ResponseRecorder {
		h.ServeHTTP(rec, req)
		return rec
	}
}

// footprintOf returns the sorted locations a job consumes from.
func footprintOf(job workload.Job) []resource.Location {
	seen := make(map[resource.Location]bool)
	for _, a := range job.Dist.Actors {
		for _, st := range a.Steps {
			for lt := range st.Amounts {
				seen[lt.Loc] = true
			}
		}
	}
	locs := make([]resource.Location, 0, len(seen))
	for loc := range seen {
		locs = append(locs, loc)
	}
	sort.Slice(locs, func(i, j int) bool { return locs[i] < locs[j] })
	return locs
}

// run replays the stream until d has elapsed, and then on until every
// class of request in it has been replayed often enough for a median
// (short smoke runs would otherwise see too few rejects) or the stream
// has been through twice.
func (rp *replayer) run(stream []op, d time.Duration) {
	start := time.Now()
	enough := func() bool {
		for _, n := range rp.tr.classes {
			if n < 2*minBeyond {
				return false
			}
		}
		return true
	}
	for i := 0; rp.err == nil; i++ {
		if time.Since(start) >= d && (enough() || i >= 2*len(stream)) {
			return
		}
		o := &stream[i%len(stream)]
		switch {
		case o.kind != opAdmit:
			rp.query(o)
		case rp.sys.sh.nodes > 1:
			rp.clusterAdmit(o)
		default:
			rp.admit(o)
		}
	}
}

// admit replays one admission on a single server:
//
//	client.roundtrip            loopback POST /v1/admit
//	  server.handler            Server.ServeHTTP on a ResponseRecorder
//	    server.decode           server.DecodeAdmitRequest
//	    ledger.admit            Ledger.AdmitCtx
//	      ledger.snapshot       Ledger.FreeView(footprint)
//	      admission.plan        admission.Decide on a View over the snapshot
//	      assure.reserve        assure.Ledger.Reserve on a detached ledger
//	    server.encode           json.Marshal(AdmitResponse)
//	client.release              loopback POST /v1/release
//	  server.release_handler    Server.ServeHTTP
//	    ledger.release          Ledger.Release
//	      assure.release        assure.Ledger.Release on the detached ledger
func (rp *replayer) admit(o *op) {
	nd := rp.sys.nodes[0]
	ledger := nd.srv.Ledger()
	name := o.job.Dist.Name
	class := "admit"
	if !o.expect {
		class = "reject"
	}
	rp.tr.begin(class)
	tr := rp.tr

	// Rung 1: over the socket.
	var status int
	var err error
	root, ok := rp.socketAdmit(nd.url, o)
	if !ok {
		return
	}
	relRoot := 0
	if o.expect {
		relRoot = tr.span("client.release", 0, func() {
			status, err = rp.cli.do(http.MethodPost, nd.url+"/v1/release", o.release, nil)
		})
		if err != nil || status != http.StatusOK {
			rp.fail("replay release %s: status %d: %v", name, status, err)
			return
		}
	}

	// Rung 2: the handler without the socket — on the live server, and on
	// the twin whose span store and flight recorder are detached.
	h, rh, ok := rp.handlerRung(rp.sys, o, "server.handler", root, "server.release_handler", relRoot)
	if !ok {
		return
	}
	if _, _, ok := rp.handlerRung(rp.twin, o, "obs.handler_detached", 0, "", 0); !ok {
		return
	}

	// Rung 3: wire decode.
	var job workload.Job
	tr.span("server.decode", h, func() { job, err = server.DecodeAdmitRequest(o.body) })
	if err != nil {
		rp.fail("replay decode %s: %v", name, err)
		return
	}

	// Rung 4: the ledger's admit, and its release under the release tree.
	var dec admission.Decision
	la := tr.span("ledger.admit", h, func() { dec, err = ledger.AdmitCtx(context.Background(), rp.policy, job) })
	if err != nil || dec.Admit != o.expect {
		rp.fail("replay ledger admit %s: admit=%v err=%v", name, dec.Admit, err)
		return
	}
	lr := 0
	if o.expect {
		lr = tr.span("ledger.release", rh, func() { err = ledger.Release(name) })
		if err != nil {
			rp.fail("replay ledger release %s: %v", name, err)
			return
		}
	}

	// Rung 5: the free-view snapshot of the footprint.
	locs := footprintOf(job)
	var free resource.Set
	tr.span("ledger.snapshot", la, func() { free, _, err = ledger.FreeView(locs) })
	if err != nil {
		rp.fail("replay snapshot %s: %v", name, err)
		return
	}

	// Rung 6: plan search over that snapshot, framed as planOne frames it:
	// the free view is Θ of a commitment-free state.
	state := core.State{Theta: free}
	tr.span("admission.plan", la, func() {
		dec = admission.Decide(rp.policy, admission.View{Theta: free, State: &state}, job.Dist)
	})
	if dec.Admit != o.expect {
		rp.fail("replay plan %s: admit=%v, label %v", name, dec.Admit, o.expect)
		return
	}

	// Rung 7: the promise, on a detached ledger.
	if dec.Admit {
		tr.span("assure.reserve", la, func() { rp.asr.Reserve(name, 0, dec.Plan.Finish, job.Dist.Deadline, 1, locs) })
		tr.span("assure.release", lr, func() { rp.asr.Release(name, 0) })
	}

	// Rung 8: response encode.
	resp := server.AdmitResponse{Job: name, Admit: dec.Admit, Reason: dec.Reason, Deadline: job.Dist.Deadline}
	if dec.Plan != nil {
		resp.Finish = dec.Plan.Finish
	}
	tr.span("server.encode", h, func() { _, err = json.Marshal(resp) })
	if err != nil {
		rp.fail("replay encode %s: %v", name, err)
	}
}

// socketAdmit is the root rung of every admission: POST /v1/admit over
// the loopback socket, verdict decoded and held to its label.
func (rp *replayer) socketAdmit(url string, o *op) (root int, ok bool) {
	var status int
	var err error
	root = rp.tr.span("client.roundtrip", 0, func() {
		status, err = rp.cli.do(http.MethodPost, url+"/v1/admit", o.body, nil)
		var resp server.AdmitResponse
		if err == nil {
			err = json.Unmarshal(rp.cli.buf.Bytes(), &resp)
		}
		if err == nil && resp.Admit != o.expect {
			err = fmt.Errorf("verdict %v, label %v", resp.Admit, o.expect)
		}
	})
	if err != nil || status != http.StatusOK {
		rp.fail("replay admit %s: status %d: %v", o.job.Dist.Name, status, err)
		return 0, false
	}
	return root, true
}

// handlerRung drives the admit (and, for an admitted job, the release)
// through a system's handler with no socket. An empty relName leaves
// the release untimed.
func (rp *replayer) handlerRung(sys *system, o *op, name string, parent int, relName string, relParent int) (h, rh int, ok bool) {
	call := serve(sys.nodes[0].handler, http.MethodPost, "/v1/admit", o.body)
	var rec *httptest.ResponseRecorder
	h = rp.tr.span(name, parent, func() { rec = call() })
	if rec.Code != http.StatusOK {
		rp.fail("replay %s %s: status %d", name, o.job.Dist.Name, rec.Code)
		return 0, 0, false
	}
	if !o.expect {
		return h, 0, true
	}
	call = serve(sys.nodes[0].handler, http.MethodPost, "/v1/release", o.release)
	if relName == "" {
		rec = call()
	} else {
		rh = rp.tr.span(relName, relParent, func() { rec = call() })
	}
	if rec.Code != http.StatusOK {
		rp.fail("replay %s release %s: status %d", name, o.job.Dist.Name, rec.Code)
		return 0, 0, false
	}
	return h, rh, true
}

// query replays one one-shot query:
//
//	client.query        loopback GET or POST /v1/query
//	  query.handler     Server.ServeHTTP on a ResponseRecorder
//	    query.parse     query.ParseText
//	    query.eval      Server.EvalQuery
func (rp *replayer) query(o *op) {
	nd := rp.sys.nodes[0]
	rp.tr.begin("query")
	method, path, body := http.MethodGet, o.path, []byte(nil)
	if o.kind == opQueryPost {
		method, path, body = http.MethodPost, "/v1/query", o.body
	}
	var status int
	var err error
	root := rp.tr.span("client.query", 0, func() {
		status, err = rp.cli.do(method, nd.url+path, body, nil)
		var resp server.QueryResponse
		if err == nil {
			err = json.Unmarshal(rp.cli.buf.Bytes(), &resp)
		}
		if err == nil && resp.Holds != o.expect {
			err = fmt.Errorf("holds %v, label %v", resp.Holds, o.expect)
		}
	})
	if err != nil || status != http.StatusOK {
		rp.fail("replay query %q: status %d: %v", o.query, status, err)
		return
	}
	call := serve(nd.handler, method, path, body)
	var rec *httptest.ResponseRecorder
	h := rp.tr.span("query.handler", root, func() { rec = call() })
	if rec.Code != http.StatusOK {
		rp.fail("replay query handler %q: status %d", o.query, rec.Code)
		return
	}
	var c *query.Compiled
	rp.tr.span("query.parse", h, func() { c, err = query.ParseText(o.query) })
	if err != nil {
		rp.fail("replay parse %q: %v", o.query, err)
		return
	}
	var qr server.QueryResponse
	rp.tr.span("query.eval", h, func() { qr, err = nd.srv.EvalQuery(c) })
	if err != nil || qr.Holds != o.expect {
		rp.fail("replay eval %q: holds=%v err=%v", o.query, qr.Holds, err)
	}
}

// clusterAdmit replays one admission on the federation:
//
//	client.roundtrip          loopback POST /v1/admit at the entry node
//	  cluster.coord           entry Node.ServeHTTP (two owners: two-phase)
//	    cluster.free_rpc      free-view round: GET /v1/cluster/free per remote owner
//	    cluster.prepare_rpc   prepare round: POST /v1/cluster/prepare, owners in parallel
//	      cluster.prepare_local   Ledger.Prepare in-process on a participant
//	    cluster.commit_rpc    commit round: POST /v1/cluster/commit per remote owner
//	      cluster.commit_local    Ledger.Commit in-process
//	  cluster.forward         entry Node.ServeHTTP (one remote owner: relayed)
//	    cluster.forward_rpc   POST /v1/admit at the owner, marked forwarded
//
// Releases are replayed over the socket only (client.release); hopeless
// jobs stop after the entry-node rung.
func (rp *replayer) clusterAdmit(o *op) {
	sh := rp.sys.sh
	entry := rp.sys.nodes[o.entry]
	name := o.job.Dist.Name
	locs := footprintOf(o.job)
	byOwner := make(map[int][]resource.Location)
	for _, loc := range locs {
		byOwner[sh.ownerOf(loc)] = append(byOwner[sh.ownerOf(loc)], loc)
	}
	class, rungName := "forward", "cluster.forward"
	if len(byOwner) > 1 {
		class, rungName = "coord", "cluster.coord"
	}
	if !o.expect {
		class += ".reject"
	}
	rp.tr.begin(class)
	tr := rp.tr

	release := func() bool {
		if !o.expect {
			return true
		}
		status, err := 0, error(nil)
		tr.span("client.release", 0, func() { status, err = rp.cli.do(http.MethodPost, entry.url+"/v1/release", o.release, nil) })
		if err != nil || status != http.StatusOK {
			rp.fail("replay release %s: status %d: %v", name, status, err)
			return false
		}
		return true
	}

	var status int
	var err error
	root, ok := rp.socketAdmit(entry.url, o)
	if !ok {
		return
	}
	if !release() {
		return
	}

	call := serve(entry.handler, http.MethodPost, "/v1/admit", o.body)
	var rec *httptest.ResponseRecorder
	h := tr.span(rungName, root, func() { rec = call() })
	if rec.Code != http.StatusOK {
		rp.fail("replay entry handler %s: status %d: %s", name, rec.Code, strings.TrimSpace(rec.Body.String()))
		return
	}
	if !release() || !o.expect {
		return
	}

	if len(byOwner) == 1 {
		var owner *node
		for i := range byOwner {
			owner = rp.sys.nodes[i]
		}
		tr.span("cluster.forward_rpc", h, func() {
			status, err = rp.cli.do(http.MethodPost, owner.url+"/v1/admit", o.body, map[string]string{"X-Rota-Forwarded": "bench"})
		})
		if err != nil || status != http.StatusOK {
			rp.fail("replay forward rpc %s: status %d: %v", name, status, err)
			return
		}
		if err := owner.srv.Ledger().Release(name); err != nil {
			rp.fail("replay forward cleanup %s: %v", name, err)
		}
		return
	}
	rp.twoPhase(o, h, byOwner)
}

// twoPhase replays the three peer-RPC rounds of a coordinated admission
// the way coordinate() runs them: free views fetched owner by owner, one
// plan over the merged view, prepares in parallel, commits in sequence.
// The entry node's own slice goes in-process, as it does in the daemon.
func (rp *replayer) twoPhase(o *op, parent int, byOwner map[int][]resource.Location) {
	tr := rp.tr
	name := o.job.Dist.Name
	owners := make([]int, 0, len(byOwner))
	for i := range byOwner {
		owners = append(owners, i)
	}
	sort.Ints(owners)

	var free resource.Set
	var err error
	tr.span("cluster.free_rpc", parent, func() {
		for _, i := range owners {
			var part resource.Set
			if i == o.entry {
				part, _, err = rp.sys.nodes[i].srv.Ledger().FreeView(byOwner[i])
			} else {
				part, err = rp.freeRPC(rp.sys.nodes[i], byOwner[i])
			}
			if err != nil {
				return
			}
			free = free.Union(part)
		}
	})
	if err != nil {
		rp.fail("replay free round %s: %v", name, err)
		return
	}
	state := core.State{Theta: free}
	dec := admission.Decide(rp.policy, admission.View{Theta: free, State: &state}, o.job.Dist)
	if !dec.Admit {
		rp.fail("replay coordinated plan %s rejected: %s", name, dec.Reason)
		return
	}
	demand := make(map[int]resource.Set)
	for _, t := range dec.Plan.Demand().Terms() {
		set := demand[rp.sys.sh.ownerOf(t.Type.Loc)]
		set.Add(t)
		demand[rp.sys.sh.ownerOf(t.Type.Loc)] = set
	}

	rp.seq++
	key := fmt.Sprintf("bench.2pc.%d", rp.seq)
	prepare := func(cli *client, i int, key string) error {
		if i == o.entry {
			return rp.sys.nodes[i].srv.Ledger().Prepare(key, name, demand[i], dec.Plan.Finish, o.job.Dist.Deadline, 50)
		}
		body, err := json.Marshal(server.PrepareRequest{Key: key, Name: name, Demand: demand[i].Compact(),
			Finish: dec.Plan.Finish, Deadline: o.job.Dist.Deadline, Expiry: 50})
		if err != nil {
			return err
		}
		status, err := cli.do(http.MethodPost, rp.sys.nodes[i].url+"/v1/cluster/prepare", body, map[string]string{"X-Rota-Idempotency-Key": key})
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d", status)
		}
		return err
	}
	errs := make([]error, len(owners))
	pr := tr.span("cluster.prepare_rpc", parent, func() {
		var wg sync.WaitGroup
		for k, i := range owners {
			wg.Add(1)
			go func(k, i int) {
				defer wg.Done()
				errs[k] = prepare([]*client{rp.cli, rp.cli2}[k], i, key)
			}(k, i)
		}
		wg.Wait()
	})
	for _, e := range errs {
		if e != nil {
			rp.fail("replay prepare round %s: %v", name, e)
			return
		}
	}
	cr := tr.span("cluster.commit_rpc", parent, func() {
		for _, i := range owners {
			if i == o.entry {
				err = rp.sys.nodes[i].srv.Ledger().Commit(key)
			} else {
				body, _ := json.Marshal(server.FinishRequest{Key: key}) // a struct of one string
				var status int
				status, err = rp.cli.do(http.MethodPost, rp.sys.nodes[i].url+"/v1/cluster/commit", body, map[string]string{"X-Rota-Idempotency-Key": key})
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("status %d", status)
				}
			}
			if err != nil {
				return
			}
		}
	})
	if err != nil {
		rp.fail("replay commit round %s: %v", name, err)
		return
	}
	for _, i := range owners {
		if err := rp.sys.nodes[i].srv.Ledger().Release(name); err != nil {
			rp.fail("replay 2pc cleanup %s: %v", name, err)
			return
		}
	}

	// The same prepare and commit in-process on one remote participant:
	// what the RPC costs beyond the call it carries.
	remote := owners[0]
	if remote == o.entry {
		remote = owners[1]
	}
	ledger := rp.sys.nodes[remote].srv.Ledger()
	key += ".local"
	tr.span("cluster.prepare_local", pr, func() {
		err = ledger.Prepare(key, name, demand[remote], dec.Plan.Finish, o.job.Dist.Deadline, 50)
	})
	if err == nil {
		tr.span("cluster.commit_local", cr, func() { err = ledger.Commit(key) })
	}
	if err == nil {
		err = ledger.Release(name)
	}
	if err != nil {
		rp.fail("replay in-process 2pc %s: %v", name, err)
	}
}

// freeRPC fetches a participant's free view the way a coordinator does.
func (rp *replayer) freeRPC(nd *node, locs []resource.Location) (resource.Set, error) {
	parts := make([]string, len(locs))
	for i, loc := range locs {
		parts[i] = string(loc)
	}
	status, err := rp.cli.do(http.MethodGet, nd.url+"/v1/cluster/free?locs="+strings.Join(parts, ","), nil, nil)
	if err != nil {
		return resource.Set{}, err
	}
	if status != http.StatusOK {
		return resource.Set{}, fmt.Errorf("free view: status %d", status)
	}
	var resp server.FreeResponse
	if err := json.Unmarshal(rp.cli.buf.Bytes(), &resp); err != nil {
		return resource.Set{}, err
	}
	return resource.ParseSet(resp.Free)
}

// allocsPer runs fn n times and returns the heap bytes and objects one
// call allocates (background goroutines are idle during the replay, so
// the deltas belong to fn).
func allocsPer(n int, fn func(i int)) (kb, objs float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}
