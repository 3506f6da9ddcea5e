package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/server"
)

// A layerSet says which workloads exercise a per-layer metric.
type layerSet uint8

const (
	onSingle  layerSet = 1 << iota // one server.Server: admit_light, admit_loaded, query_mix
	onQuery                        // query_mix
	onCluster                      // cluster_span
	onSim                          // sim_batch
	onDaemon  = onSingle | onCluster
	onAll     = onDaemon | onSim
)

// layersOf is the set a workload belongs to.
func layersOf(workload string) layerSet {
	switch workload {
	case "sim_batch":
		return onSim
	case "cluster_span":
		return onCluster
	case "query_mix":
		return onSingle | onQuery
	}
	return onSingle
}

// perLayerMetrics names every per-layer metric with its unit and the
// workloads that exercise it. A traced run reports all of them on every
// workload, because the driver wants every declared name: one the
// workload does not exercise reads 0, and one it does exercise is
// measured or the run fails — a refused percentile or a rung never run
// is never printed as 0. Timings ("_us") are medians of the traced
// replay unless the name says otherwise; counts are exported counters
// read around the closed-loop half of the traced run. README.md says
// which end-to-end metric each should move, and on which workload.
var perLayerMetrics = []struct {
	name, unit string
	on         layerSet
}{
	// Generator (this package).
	{"loadgen.sent", "count", onDaemon}, {"loadgen.ok", "count", onDaemon}, {"loadgen.rejected", "count", onDaemon},
	{"loadgen.failed", "count", onDaemon}, {"loadgen.redirects", "count", onDaemon},
	{"client.roundtrip_us", "us", onDaemon}, {"client.net_self_us", "us", onDaemon},
	{"client.admit_p50_us", "us", onDaemon}, {"client.admit_p99_us", "us", onDaemon}, {"client.release_p50_us", "us", onDaemon},
	{"client.query_p50_us", "us", onQuery}, {"client.query_p99_us", "us", onQuery}, {"client.query_per_s", "1/s", onQuery},
	// Envelope (internal/server HTTP).
	{"server.handler_us", "us", onSingle}, {"server.decode_us", "us", onSingle}, {"server.decode_allocs", "count", onSingle},
	{"server.encode_us", "us", onSingle}, {"server.envelope_self_us", "us", onSingle}, {"server.release_handler_us", "us", onSingle},
	{"server.queue_depth_max", "count", onDaemon}, {"server.late_decisions", "count", onDaemon}, {"server.timed_out", "count", onDaemon},
	// Ledger (internal/server ledger and hot path).
	{"ledger.admit_us", "us", onSingle}, {"ledger.snapshot_us", "us", onSingle}, {"ledger.reserve_self_us", "us", onSingle},
	{"ledger.release_us", "us", onSingle}, {"ledger.admit_kb", "KB", onSingle}, {"ledger.admit_allocs", "count", onSingle},
	{"ledger.release_kb", "KB", onSingle}, {"ledger.commitments", "count", onDaemon}, {"ledger.free_segments", "count", onSingle},
	{"ledger.batches", "count", onDaemon}, {"ledger.batched_jobs", "count", onDaemon}, {"ledger.plan_retries", "count", onDaemon},
	{"ledger.plan_fallbacks", "count", onDaemon}, {"ledger.free_patches", "count", onDaemon}, {"ledger.free_recomputes", "count", onDaemon},
	{"ledger.first_try_frac", "ratio", onDaemon},
	// Plan search (internal/admission, internal/schedule).
	{"admission.plan_us", "us", onSingle}, {"admission.plan_kb", "KB", onSingle}, {"admission.plan_allocs", "count", onSingle},
	{"admission.reject_us", "us", onSingle},
	// Promises (internal/obs/assure).
	{"assure.reserve_release_us", "us", onSingle}, {"assure.kept", "count", onDaemon}, {"assure.active", "count", onDaemon},
	{"assure.violated", "count", onDaemon},
	// Observability (internal/obs, obs/span, obs/flightrec).
	{"obs.spans_delta_us", "us", onSingle}, {"obs.spans_evicted", "count", onDaemon},
	// Queries (internal/query). The sweeper's counters are read on every
	// daemon; without subscribers they count nothing.
	{"query.parse_us", "us", onQuery}, {"query.eval_us", "us", onQuery}, {"query.handler_us", "us", onQuery},
	{"query.evals", "count", onDaemon}, {"query.flips", "count", onDaemon}, {"query.delivered", "count", onDaemon},
	{"query.drops", "count", onDaemon}, {"query.evals_per_write", "ratio", onQuery},
	// Federation (internal/cluster, internal/membership). Aborts and
	// expired leases are the server's two-phase counters, read everywhere.
	{"cluster.coord_us", "us", onCluster}, {"cluster.forward_us", "us", onCluster}, {"cluster.free_rpc_us", "us", onCluster},
	{"cluster.prepare_rpc_us", "us", onCluster}, {"cluster.commit_rpc_us", "us", onCluster}, {"cluster.prepare_local_us", "us", onCluster},
	{"cluster.rpc_self_us", "us", onCluster}, {"cluster.rpc_attempts", "count", onCluster}, {"cluster.rpc_retries", "count", onCluster},
	{"cluster.coordinated", "count", onCluster}, {"cluster.forwarded", "count", onCluster}, {"cluster.aborts", "count", onDaemon},
	{"cluster.lease_expired", "count", onDaemon}, {"membership.redirects", "count", onCluster},
	// Core library (internal/core, internal/actor, internal/sim).
	{"core.free_resources_us", "us", onSim}, {"core.free_resources_allocs", "count", onSim}, {"core.accommodate_us", "us", onSim},
	{"core.tick_us", "us", onSim}, {"sim.pass_ms", "ms", onSim}, {"sim.admitted", "count", onSim}, {"sim.rejected", "count", onSim},
	{"sim.ticks", "count", onSim},
	// Go runtime.
	{"runtime.gc_cycles", "count", onDaemon}, {"runtime.gc_pause_ms", "ms", onDaemon}, {"runtime.gc_cpu_frac", "ratio", onDaemon},
	{"runtime.heap_goal_mb", "MB", onDaemon}, {"runtime.goroutines_max", "count", onDaemon},
	// The replay itself.
	{"trace.unattributed_us", "us", onAll}, {"trace.roundtrip_delta_frac", "ratio", onDaemon}, {"trace.spans", "count", onAll},
}

// fillUnexercised holds a traced run to the list above: a metric the
// workload exercises must have been measured, and one it does not
// exercise must not have been, and reads 0.
func fillUnexercised(res *result, workload string) error {
	set := layersOf(workload)
	for _, m := range perLayerMetrics {
		_, measured := res.Metrics[m.name]
		switch exercised := m.on&set != 0; {
		case exercised && !measured:
			return fmt.Errorf("%s exercises %s but did not measure it", workload, m.name)
		case !exercised && measured:
			return fmt.Errorf("%s measured %s, which it is not listed to exercise", workload, m.name)
		case !exercised:
			res.put(m.name, m.unit, 0)
		}
	}
	return nil
}

// tracedLayers digests the replay's spans into the stacked tables and
// the per-layer timings, and enforces the stacked-breakdown rule.
func tracedLayers(res *result, sh shape, rp *replayer, stream []op, log io.Writer) error {
	classes := []string{"admit", "reject"}
	if sh.nodes > 1 {
		classes = []string{"coord", "forward", "coord.reject", "forward.reject"}
	}
	if sh.queries {
		classes = append(classes, "query")
	}
	stacks := make(map[string]*stack)
	var unattributed float64
	for _, class := range classes {
		st, err := buildStack(rp.tr.spans, class, false)
		if err != nil {
			return err
		}
		st.print(log, sh.name)
		if err := st.check(); err != nil {
			return err
		}
		stacks[class] = st
		if st.unattributed > unattributed {
			unattributed = st.unattributed
		}
	}
	// A rung the replay never ran is an error, not a 0.
	var missing []string
	rungOf := func(class, name string) *rung {
		if r := stacks[class].byName[name]; r != nil {
			return r
		}
		missing = append(missing, class+"/"+name)
		return &rung{}
	}
	main := classes[0]
	p50 := func(name string) float64 { return rungOf(main, name).p50 }
	self := func(name string) float64 { return rungOf(main, name).self }
	us := func(name string, v float64) { res.put(name, "us", v) }

	us("client.roundtrip_us", p50("client.roundtrip"))
	us("client.net_self_us", self("client.roundtrip"))
	us("trace.unattributed_us", unattributed)
	res.put("trace.spans", "count", float64(len(rp.tr.spans)))
	untraced := res.Metrics["client.admit_p50_us"].Value // countedLayers put it, or refused the run
	res.put("trace.roundtrip_delta_frac", "ratio", (p50("client.roundtrip")-untraced)/untraced)
	if sh.queries {
		us("query.handler_us", rungOf("query", "query.handler").p50)
		us("query.parse_us", rungOf("query", "query.parse").p50)
		us("query.eval_us", rungOf("query", "query.eval").p50)
	}
	if sh.nodes > 1 {
		us("cluster.coord_us", p50("cluster.coord"))
		us("cluster.free_rpc_us", p50("cluster.free_rpc"))
		us("cluster.prepare_rpc_us", p50("cluster.prepare_rpc"))
		us("cluster.commit_rpc_us", p50("cluster.commit_rpc"))
		us("cluster.prepare_local_us", p50("cluster.prepare_local"))
		us("cluster.rpc_self_us", p50("cluster.prepare_rpc")-p50("cluster.prepare_local"))
		us("cluster.forward_us", rungOf("forward", "cluster.forward").p50)
	} else {
		us("server.handler_us", p50("server.handler"))
		us("server.envelope_self_us", self("server.handler"))
		us("server.decode_us", p50("server.decode"))
		us("server.encode_us", p50("server.encode"))
		us("server.release_handler_us", p50("server.release_handler"))
		us("ledger.admit_us", p50("ledger.admit"))
		us("ledger.reserve_self_us", self("ledger.admit"))
		us("ledger.snapshot_us", p50("ledger.snapshot"))
		us("ledger.release_us", p50("ledger.release"))
		us("admission.plan_us", p50("admission.plan"))
		us("admission.reject_us", rungOf("reject", "admission.plan").p50)
		us("assure.reserve_release_us", p50("assure.reserve")+p50("assure.release"))
		us("obs.spans_delta_us", p50("server.handler")-p50("obs.handler_detached"))
	}
	if len(missing) > 0 {
		return fmt.Errorf("%s: the replay never ran rung(s) %s", sh.name, strings.Join(missing, ", "))
	}
	if sh.nodes > 1 {
		return nil
	}
	return allocLayers(res, rp, stream)
}

// allocLayers measures what single calls into the envelope, the ledger
// and the plan search allocate, on the first comfortable jobs of the
// stream, with runtime.MemStats read around each call. Nothing else runs
// but the standing-query sweep each ledger write wakes; where there are
// subscriptions the pass waits until the sweeper has gone quiet (no
// evaluation for 2 ms) before each reading.
func allocLayers(res *result, rp *replayer, stream []op) error {
	const sample = 64
	ledger := rp.sys.nodes[0].srv.Ledger()
	var decode, admit, release, plan struct{ bytes, objs uint64 }
	var segments, n int
	var m0, m1 runtime.MemStats
	around := func(acc *struct{ bytes, objs uint64 }, fn func()) {
		if rp.sys.sh.subs > 0 {
			queries := rp.sys.nodes[0].srv.Queries()
			for quiet, last := 0, queries.Stats().Evals; quiet < 2; {
				time.Sleep(time.Millisecond)
				if now := queries.Stats().Evals; now == last {
					quiet++
				} else {
					quiet, last = 0, now
				}
			}
		}
		runtime.ReadMemStats(&m0)
		fn()
		runtime.ReadMemStats(&m1)
		acc.bytes += m1.TotalAlloc - m0.TotalAlloc
		acc.objs += m1.Mallocs - m0.Mallocs
	}
	for i := 0; n < sample && i < len(stream); i++ {
		o := &stream[i]
		if o.kind != opAdmit || !o.expect {
			continue
		}
		n++
		var err error
		around(&decode, func() { _, err = server.DecodeAdmitRequest(o.body) })
		if err != nil {
			return err
		}
		locs := footprintOf(o.job)
		free, _, err := ledger.FreeView(locs)
		if err != nil {
			return err
		}
		segments += free.NumTerms()
		state := core.State{Theta: free}
		around(&plan, func() { admission.Decide(rp.policy, admission.View{Theta: free, State: &state}, o.job.Dist) })
		var dec admission.Decision
		around(&admit, func() { dec, err = ledger.AdmitCtx(context.Background(), rp.policy, o.job) })
		if err != nil || !dec.Admit {
			return fmt.Errorf("alloc pass: admit %s: admit=%v err=%v", o.job.Dist.Name, dec.Admit, err)
		}
		around(&release, func() { err = ledger.Release(o.job.Dist.Name) })
		if err != nil {
			return err
		}
	}
	if n == 0 {
		return fmt.Errorf("alloc pass: no comfortable job in the stream")
	}
	per := func(v uint64) float64 { return float64(v) / float64(n) }
	res.put("server.decode_allocs", "count", per(decode.objs))
	res.put("ledger.admit_kb", "KB", per(admit.bytes)/1024)
	res.put("ledger.admit_allocs", "count", per(admit.objs))
	res.put("ledger.release_kb", "KB", per(release.bytes)/1024)
	res.put("admission.plan_kb", "KB", per(plan.bytes)/1024)
	res.put("admission.plan_allocs", "count", per(plan.objs))
	res.put("ledger.free_segments", "count", float64(segments)/float64(n))
	return nil
}
