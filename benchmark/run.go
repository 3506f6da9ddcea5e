package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/obs/assure"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) put(name, unit string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// runConfig is one run: a workload, a seed, a duration, traced or not.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool // small ledgers and passes, one set-up: the tests
	traceOut string
	log      io.Writer // human-readable progress and tables
}

// runSeconds is the default length of one run, run_seconds in
// BENCHMARK.json.
const runSeconds = 15

// setups is how many times a run sets up; setup_s is their median, so
// one slow boot does not set it.
func (cfg runConfig) setups() int {
	if cfg.smoke {
		return 1
	}
	return 3
}

func (cfg runConfig) duration() time.Duration {
	return time.Duration(cfg.seconds * float64(time.Second))
}

// runWorkload performs one run. A harness failure — a set-up that does
// not boot, a refused percentile, an unattributed rung — is an error; a
// failed output check makes the result incorrect.
func runWorkload(cfg runConfig) (*result, error) {
	if cfg.workload == "sim_batch" {
		return runSim(cfg)
	}
	for _, sh := range daemonShapes(cfg.smoke) {
		if sh.name == cfg.workload {
			return runDaemon(cfg, sh)
		}
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames())
}

func workloadNames() []string {
	var names []string
	for _, sh := range daemonShapes(false) {
		names = append(names, sh.name)
	}
	return append(names, "sim_batch")
}

// setUp boots the system and warms it up with a fixed request count, so
// the time it takes scales with the code's speed, not with a timer.
func setUp(sh shape, streams [numClients][]op) (*system, []*client, error) {
	sys, err := boot(sh, true)
	if err != nil {
		return nil, nil, err
	}
	clients := make([]*client, numClients)
	for c := range clients {
		clients[c] = newClient(sys.urls(), streams[c])
	}
	runClients(clients, sh.warmup/numClients, 0)
	if t := sumCounters(clients); t.failed > 0 {
		closeClients(clients)
		_ = sys.close() // already failing; the first error is the one to report
		return nil, nil, fmt.Errorf("warm-up: %d of %d requests failed, first: %s", t.failed, t.sent, t.firstErr)
	}
	return sys, clients, nil
}

// measured is the digest of one closed-loop run.
type measured struct {
	elapsed   time.Duration
	counts    counters
	ops       int // completed operations: admits + releases + queries
	allocKB   float64
	allocObjs float64
	heapLive  uint64
}

// measure runs the closed loop for d with tracing off and digests
// throughput, allocation and live heap. Allocation is the MemStats delta
// over the run divided by completed operations; it includes the
// generator's own allocations, which are constant because the benchmark
// is frozen.
func measure(clients []*client, d time.Duration) measured {
	for _, c := range clients {
		c.resetMeasured()
	}
	var m0, m1, m2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	elapsed := runClients(clients, 0, d)
	runtime.ReadMemStats(&m1)
	// Let the last write's standing-query sweep finish: what it holds
	// while it runs is not what holding the promises costs.
	time.Sleep(50 * time.Millisecond)
	runtime.GC()
	runtime.ReadMemStats(&m2)
	out := measured{elapsed: elapsed, counts: sumCounters(clients), heapLive: m2.HeapAlloc}
	for _, c := range clients {
		out.ops += len(c.samples)
	}
	if out.ops > 0 {
		out.allocKB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(out.ops)
		out.allocObjs = float64(m1.Mallocs-m0.Mallocs) / float64(out.ops)
	}
	return out
}

func runDaemon(cfg runConfig, sh shape) (*result, error) {
	streams, err := sh.streams(cfg.seed)
	if err != nil {
		return nil, err
	}
	res := &result{Metrics: make(map[string]metric)}
	var failures []string
	check := func(err error) {
		if err != nil {
			failures = append(failures, err.Error())
		}
	}

	// The last system set up is the one measured.
	var sys *system
	var clients []*client
	var setups []float64
	for len(setups) < cfg.setups() {
		if sys != nil {
			closeClients(clients)
			if err := sys.close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if sys, clients, err = setUp(sh, streams); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer func() {
		closeClients(clients)
		_ = sys.close() // the run's outcome is already decided
	}()
	check(checkLabels(sh, sys.residents, streams))

	if !cfg.trace {
		m := measure(clients, cfg.duration())
		if err := endToEnd(res, sh, clients, m, median(setups), cfg.log); err != nil {
			return nil, err
		}
		_, err := checkSystem(sys)
		check(err)
		finish(res, m.counts, failures, cfg.log)
		return res, nil
	}

	// Traced run: half the time in the closed loop with the samplers and
	// counters read around it, half in the one-client replay.
	before := readCounters(sys)
	smp := startSampler(sys)
	m := measure(clients, cfg.duration()/2)
	smp.stop()
	after := readCounters(sys)
	if err := countedLayers(res, sh, m, before, after, smp, clients); err != nil {
		return nil, err
	}

	rp := &replayer{sys: sys, tr: newTracer(), cli: newClient(sys.urls(), nil), cli2: newClient(sys.urls(), nil),
		policy: &admission.Rota{}, asr: assure.New("detached")}
	defer closeClients([]*client{rp.cli, rp.cli2})
	if sh.nodes == 1 {
		// Only the single-server ladder has the detached-handler rung.
		if rp.twin, err = boot(sh, false); err != nil {
			return nil, err
		}
		defer func() { _ = rp.twin.close() }() // idle twin; nothing to report
	}
	rp.run(streams[0], cfg.duration()/2)
	if rp.err != nil {
		return nil, rp.err
	}
	if err := rp.tr.write(cfg.traceOut); err != nil {
		return nil, err
	}
	if err := tracedLayers(res, sh, rp, streams[0], cfg.log); err != nil {
		return nil, err
	}
	stats, err := checkSystem(sys)
	check(err)
	res.put("assure.kept", "count", float64(stats.Kept))
	res.put("assure.active", "count", float64(stats.Active))
	res.put("assure.violated", "count", float64(stats.Violated))
	finish(res, m.counts, failures, cfg.log)
	return res, nil
}

// finish fills in the output-check verdict: every offending operation
// and every failed check counts.
func finish(res *result, c counters, failures []string, log io.Writer) {
	if c.firstErr != "" {
		failures = append(failures, c.firstErr)
	}
	res.Attempted = c.sent
	res.Failed = c.failed
	if len(failures) > 0 && res.Failed == 0 {
		res.Failed = len(failures)
	}
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	res.Correct = len(failures) == 0 && c.failed == 0
	for _, f := range failures {
		fmt.Fprintf(log, "CHECK FAILED: %s\n", f)
	}
}

// endToEnd computes the end-to-end metrics of a daemon workload.
func endToEnd(res *result, sh shape, clients []*client, m measured, setup float64, log io.Writer) error {
	admit, admitInOrder := latencies(clients, sAdmit)
	p50, err := percentile(admit, 0.5)
	if err != nil {
		return fmt.Errorf("admit_p50_us: %w", err)
	}
	p95, n95, err := slicedTail(admitInOrder, 0.95)
	if err != nil {
		return fmt.Errorf("admit_p95_us: %w", err)
	}
	// The companion operation: what a client does besides asking for
	// verdicts — the one-shot query on query_mix, the release elsewhere.
	kind := sRelease
	if sh.queries {
		kind = sQuery
	}
	comp, _ := latencies(clients, kind)
	c50, err := percentile(comp, 0.5)
	if err != nil {
		return fmt.Errorf("companion_p50_us: %w", err)
	}
	res.put("setup_s", "s", setup)
	res.put("admit_per_s", "1/s", float64(m.counts.ok+m.counts.rejected)/m.elapsed.Seconds())
	res.put("admit_p50_us", "us", p50)
	res.put("admit_p95_us", "us", p95)
	res.put("companion_p50_us", "us", c50)
	res.put("alloc_kb_per_op", "KB", m.allocKB)
	res.put("allocs_per_op", "count", m.allocObjs)
	res.put("heap_live_mb", "MB", float64(m.heapLive)/(1<<20))
	fmt.Fprintf(log, "%s: %d admits (n=%d for p50, n=%d over fifths for p95), %d companion ops, %d ops in %.2fs\n",
		sh.name, len(admit), len(admit), n95, len(comp), m.ops, m.elapsed.Seconds())
	return nil
}

// sampler polls the gauges a counter delta cannot give: the deepest the
// worker queue got and the most goroutines alive. It runs only in the
// traced run, so its cost never touches an end-to-end metric.
type sampler struct {
	sys           *system
	quit          chan struct{}
	done          sync.WaitGroup
	queueMax      int64
	goroutinesMax int
}

func startSampler(sys *system) *sampler {
	s := &sampler{sys: sys, quit: make(chan struct{})}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-tick.C:
				if n := runtime.NumGoroutine(); n > s.goroutinesMax {
					s.goroutinesMax = n
				}
				for _, nd := range s.sys.nodes {
					if d := nd.srv.Stats().QueueDepth; d > s.queueMax {
						s.queueMax = d
					}
				}
			}
		}
	}()
	return s
}

func (s *sampler) stop() {
	close(s.quit)
	s.done.Wait()
}

// layerCounters are the exported counters read before and after the
// closed-loop half of a traced run, summed over the nodes.
type layerCounters struct {
	c       map[string]float64
	gc      runtime.MemStats
	gcCPU   float64 // cpu-seconds in the collector
	allCPU  float64 // cpu-seconds available to the process
	commits int
}

func readCounters(sys *system) layerCounters {
	out := layerCounters{c: make(map[string]float64)}
	add := func(name string, v uint64) { out.c[name] += float64(v) }
	for _, nd := range sys.nodes {
		st := nd.srv.Stats()
		add("server.late_decisions", st.LateDecisions)
		add("server.timed_out", st.TimedOut)
		add("ledger.batches", st.AdmitHot.Batches)
		add("ledger.batched_jobs", st.AdmitHot.BatchedJobs)
		add("ledger.plan_retries", st.AdmitHot.PlanRetries)
		add("ledger.plan_fallbacks", st.AdmitHot.PlanFallbacks)
		add("ledger.free_patches", st.AdmitHot.FreePatches)
		add("ledger.free_recomputes", st.AdmitHot.FreeRecomputes)
		add("ledger.epoch", st.LedgerEpoch)
		add("obs.spans_evicted", st.Spans.Evicted)
		add("query.evals", st.Query.Subs.Evals)
		add("query.flips", st.Query.Subs.Flips)
		add("query.delivered", st.Query.Subs.Delivered)
		add("query.drops", st.Query.Subs.Drops)
		add("cluster.aborts", st.TwoPhase.Aborts)
		add("cluster.lease_expired", st.TwoPhase.LeasesExpired)
		out.commits += st.Commitments
		if nd.cl == nil {
			continue
		}
		cs := nd.cl.Stats()
		add("cluster.coordinated", cs.Cluster.Coordinations)
		add("cluster.forwarded", cs.Cluster.Forwarded)
		add("membership.redirects", cs.Cluster.RedirectsServed)
		for _, p := range cs.Peers {
			add("cluster.rpc_attempts", p.RPC.Calls)
			add("cluster.rpc_retries", p.RPC.Retries)
		}
	}
	runtime.ReadMemStats(&out.gc)
	samples := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindFloat64 && samples[1].Value.Kind() == metrics.KindFloat64 {
		out.gcCPU, out.allCPU = samples[0].Value.Float64(), samples[1].Value.Float64()
	}
	return out
}

// countedLayers fills the per-layer metrics that are counts over the
// closed-loop half of a traced run, and the client's view of that half.
func countedLayers(res *result, sh shape, m measured, before, after layerCounters, smp *sampler, clients []*client) error {
	delta := func(name string) float64 { return after.c[name] - before.c[name] }
	for name := range after.c {
		if name != "ledger.epoch" { // a denominator below, not a metric
			res.put(name, "count", delta(name))
		}
	}
	res.put("loadgen.sent", "count", float64(m.counts.sent))
	res.put("loadgen.ok", "count", float64(m.counts.ok))
	res.put("loadgen.rejected", "count", float64(m.counts.rejected))
	res.put("loadgen.failed", "count", float64(m.counts.failed))
	res.put("loadgen.redirects", "count", float64(m.counts.redirects))
	res.put("server.queue_depth_max", "count", float64(smp.queueMax))
	res.put("ledger.commitments", "count", float64(after.commits))
	jobs, bumps, cpu := delta("ledger.batched_jobs"), delta("ledger.epoch"), after.allCPU-before.allCPU
	if jobs <= 0 || bumps <= 0 || cpu <= 0 {
		return fmt.Errorf("%s: counters did not move over the closed loop: %v batched jobs, %v epoch bumps, %v cpu-seconds", sh.name, jobs, bumps, cpu)
	}
	res.put("ledger.first_try_frac", "ratio", 1-delta("ledger.plan_retries")/jobs)
	res.put("runtime.gc_cycles", "count", float64(after.gc.NumGC-before.gc.NumGC))
	res.put("runtime.gc_pause_ms", "ms", float64(after.gc.PauseTotalNs-before.gc.PauseTotalNs)/1e6)
	res.put("runtime.gc_cpu_frac", "ratio", (after.gcCPU-before.gcCPU)/cpu)
	res.put("runtime.heap_goal_mb", "MB", float64(after.gc.NextGC)/(1<<20))
	res.put("runtime.goroutines_max", "count", float64(smp.goroutinesMax))

	// The client-side view of the same half run. A percentile with too
	// few samples fails the run; it is never printed as 0.
	type view struct {
		kind int
		name string
		tail bool // a p99 beside the p50
	}
	views := []view{{sAdmit, "client.admit", true}, {sRelease, "client.release", false}}
	if sh.queries {
		views = append(views, view{sQuery, "client.query", true})
		res.put("client.query_per_s", "1/s", float64(m.counts.queries)/m.elapsed.Seconds())
		res.put("query.evals_per_write", "ratio", delta("query.evals")/bumps)
	}
	for _, v := range views {
		sorted, inOrder := latencies(clients, v.kind)
		p50, err := percentile(sorted, 0.5)
		if err != nil {
			return fmt.Errorf("%s_p50_us: %w", v.name, err)
		}
		res.put(v.name+"_p50_us", "us", p50)
		if !v.tail {
			continue
		}
		p99, _, err := slicedTail(inOrder, 0.99)
		if err != nil {
			return fmt.Errorf("%s_p99_us: %w", v.name, err)
		}
		res.put(v.name+"_p99_us", "us", p99)
	}
	return nil
}

// defaultTraceOut places span files under the benchmark's own out/
// directory whether the command runs from the repository root or from
// the benchmark directory — never at the repository root.
func defaultTraceOut(workload string, seed int64) string {
	dir := "out"
	if st, err := os.Stat("benchmark"); err == nil && st.IsDir() {
		dir = filepath.Join("benchmark", "out")
	}
	return filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
}

// finite reports whether every metric is a finite number.
func (r *result) finite() error {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if v := r.Metrics[name].Value; math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", name, v)
		}
	}
	return nil
}
