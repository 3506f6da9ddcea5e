package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/obs/assure"
	"repro/internal/obs/flightrec"
	"repro/internal/obs/span"
	"repro/internal/query"
	"repro/internal/resource"
	"repro/internal/server"
	"repro/internal/workload"
)

// node is one daemon of the system under test: the server core, its
// cluster layer when federated, and the loopback listener in front.
type node struct {
	srv     *server.Server
	cl      *cluster.Node // nil on a single server
	handler http.Handler  // what the listener serves: cl, or srv
	httpSrv *http.Server
	url     string
}

// system is a booted workload: one server, or a three-node federation.
type system struct {
	sh        shape
	nodes     []*node
	residents []workload.Job
	subs      []*query.Subscription
	drained   sync.WaitGroup // standing-subscription drain goroutines
}

// serverConfig is cmd/rotad's default wiring: assure on, span store on,
// flight recorder on, event log on. rotad writes its event log to
// stderr; here the same formatted lines go to io.Discard (and, as in
// rotad, are teed into the flight recorder's ring), so the formatting
// cost is paid and only the write syscall is not. attach=false detaches
// the span store and recorder — the twin the obs.spans_delta_us rung
// compares against.
func serverConfig(theta resource.Set, nodeID string, attach bool) server.Config {
	recNode := nodeID
	if recNode == "" {
		recNode = "rotad"
	}
	var spans *span.Store
	var rec *flightrec.Recorder
	var sink io.Writer = io.Discard
	if attach {
		spans = span.NewStore(span.DefaultCapacity, nodeID)
		rec = flightrec.New(recNode, flightrec.DefaultEventCap, flightrec.DefaultSnapshotCap, spans)
		sink = io.MultiWriter(io.Discard, rec.Writer())
	}
	return server.Config{
		Policy:          &admission.Rota{},
		Theta:           theta,
		DecisionTimeout: 2 * time.Second,
		Obs:             obs.New(obs.Options{Log: sink, Node: nodeID}),
		Spans:           spans,
		Assure:          assure.New(recNode),
		FlightRec:       rec,
	}
}

// boot builds Θ, starts the daemon(s) on loopback listeners, preloads
// the residents straight into the owning ledgers (as benchAdmitLedger
// does) and registers the standing subscriptions.
func boot(sh shape, attach bool) (*system, error) {
	sys := &system{sh: sh}
	residents, err := sh.residentJobs()
	if err != nil {
		return nil, err
	}
	sys.residents = residents
	theta := sh.theta()

	listeners := make([]net.Listener, sh.nodes)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		listeners[i] = ln
	}
	if sh.nodes == 1 {
		srv, err := server.New(serverConfig(theta, "", attach))
		if err != nil {
			return nil, err
		}
		sys.nodes = []*node{{srv: srv, handler: srv}}
	} else {
		parts := cluster.PartitionLocations(sh.locations(), sh.nodes)
		peers := make([]cluster.Peer, sh.nodes)
		for i := range peers {
			peers[i] = cluster.Peer{ID: fmt.Sprintf("n%d", i+1), URL: "http://" + listeners[i].Addr().String(), Locations: parts[i]}
		}
		for i := range peers {
			scfg := serverConfig(theta, peers[i].ID, attach)
			cl, err := cluster.New(cluster.Config{
				Self:           peers[i].ID,
				Peers:          peers,
				Server:         scfg,
				LeaseTTL:       50,
				GossipInterval: 250 * time.Millisecond,
				RPCTimeout:     2 * time.Second,
				RPCRetries:     2,
				RPCBackoffBase: 25 * time.Millisecond,
				RPCBackoffCap:  400 * time.Millisecond,
				Obs:            scfg.Obs,
				Spans:          scfg.Spans,
			})
			if err != nil {
				return nil, err
			}
			sys.nodes = append(sys.nodes, &node{srv: cl.Server(), cl: cl, handler: cl})
		}
	}
	for i, nd := range sys.nodes {
		nd.url = "http://" + listeners[i].Addr().String()
		nd.httpSrv = &http.Server{Handler: nd.handler}
		go func(nd *node, ln net.Listener) { _ = nd.httpSrv.Serve(ln) }(nd, listeners[i]) // returns ErrServerClosed at close()
	}

	policy := &admission.Rota{}
	for _, job := range residents {
		loc := job.Dist.Actors[0].Steps[0].Action.Loc
		dec, err := sys.nodes[sh.ownerOf(loc)].srv.Ledger().Admit(policy, job)
		if err != nil || !dec.Admit {
			return nil, fmt.Errorf("preload %s: admit=%v reason=%q err=%v", job.Dist.Name, dec.Admit, dec.Reason, err)
		}
	}
	for _, text := range sh.standingQueries() {
		c, err := query.ParseText(text)
		if err != nil {
			return nil, err
		}
		sub, err := sys.nodes[0].srv.Queries().Subscribe(c, 256)
		if err != nil {
			return nil, err
		}
		sys.subs = append(sys.subs, sub)
		sys.drained.Add(1)
		go func() {
			defer sys.drained.Done()
			for range sub.Events() { // closed by sub.Close or server shutdown
			}
		}()
	}
	return sys, nil
}

// close drains and stops every daemon and waits for the drain
// goroutines; the system must be idle.
func (sys *system) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	for _, sub := range sys.subs {
		sub.Close()
	}
	sys.drained.Wait()
	for _, nd := range sys.nodes {
		if nd.cl != nil {
			errs = append(errs, nd.cl.Shutdown(ctx))
		} else {
			errs = append(errs, nd.srv.Shutdown(ctx))
		}
	}
	for _, nd := range sys.nodes {
		errs = append(errs, nd.httpSrv.Shutdown(ctx))
	}
	return errors.Join(errs...)
}

func (sys *system) urls() []string {
	out := make([]string, len(sys.nodes))
	for i, nd := range sys.nodes {
		out[i] = nd.url
	}
	return out
}
