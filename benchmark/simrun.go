package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/churn"
	"repro/internal/workload"
)

// runSim performs one sim_batch run. Its "set-up" is what a pass needs
// before it can be timed: generating the inputs and one untimed pass
// that warms the allocator and caches.
func runSim(cfg runConfig) (*result, error) {
	res := &result{Metrics: make(map[string]metric)}
	policy := &timedPolicy{durs: make([]uint32, 0, sampleCap)}
	var failures []string

	var setups []float64
	var jobs []workload.Job
	var trace churn.Trace
	for len(setups) < cfg.setups() {
		start := time.Now()
		var err error
		if jobs, trace, err = simInput(cfg.seed, cfg.smoke); err != nil {
			return nil, err
		}
		if _, err := runSimPass(policy, jobs, trace); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	policy.durs = policy.durs[:0]

	tr := newTracer()
	var passes []simPass
	var layers []simLayers
	var allocBytes, allocObjs uint64
	offered := 0
	budget := cfg.duration()
	var m0, m1 runtime.MemStats
	runtime.GC()
	for spent, k := time.Duration(0), int64(0); spent < budget; k++ {
		if k > 0 {
			var err error
			if jobs, trace, err = simInput(cfg.seed+k, cfg.smoke); err != nil {
				return nil, err
			}
		}
		runtime.ReadMemStats(&m0)
		pass, err := runSimPass(policy, jobs, trace)
		runtime.ReadMemStats(&m1)
		if err != nil {
			failures = append(failures, err.Error())
			break
		}
		allocBytes += m1.TotalAlloc - m0.TotalAlloc
		allocObjs += m1.Mallocs - m0.Mallocs
		offered += pass.res.Offered
		passes = append(passes, pass)
		spent += pass.wall
		if cfg.trace {
			// The traced half: the same pass again, rung by rung.
			start := time.Now()
			lay := replaySimPass(jobs, trace)
			spent += time.Since(start)
			layers = append(layers, lay)
			tr.begin("pass")
			root := tr.add("sim.pass", 0, pass.wall)
			acc := tr.add("core.accommodate", root, lay.sumAccommodate)
			tr.add("core.free_resources", acc, lay.sumFreeRes)
			tr.add("core.tick", root, lay.sumTick)
			if lay.admitted != pass.res.Admitted || lay.rejected != pass.res.Rejected {
				failures = append(failures, fmt.Sprintf("sim replay of seed %d decided %d/%d, sim.Run %d/%d",
					cfg.seed+k, lay.admitted, lay.rejected, pass.res.Admitted, pass.res.Rejected))
			}
		}
	}
	if len(passes) == 0 {
		return nil, fmt.Errorf("sim_batch: no pass completed: %v", failures)
	}
	if cfg.seed == simGoldenSeed && !cfg.smoke && passes[0].res.Admitted != simGolden {
		failures = append(failures, fmt.Sprintf("sim.admitted for seed %d is %d, frozen at %d",
			simGoldenSeed, passes[0].res.Admitted, simGolden))
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)

	if !cfg.trace {
		if err := simEndToEnd(res, cfg, policy, passes, median(setups), offered, allocBytes, allocObjs, m1.HeapAlloc); err != nil {
			return nil, err
		}
	} else if err := simLayersOut(res, cfg, tr, passes, layers); err != nil {
		return nil, err
	}
	finish(res, counters{sent: offered}, failures, cfg.log)
	return res, nil
}

// simEndToEnd maps sim_batch onto the end-to-end metrics every workload
// reports: a verdict is one decision of admission.Rota inside sim.Run,
// timed by a wrapping policy; the companion operation is everything else
// the simulator does for a job (accommodating it, ticking it through its
// plan, completing it), per job.
func simEndToEnd(res *result, cfg runConfig, policy *timedPolicy, passes []simPass,
	setup float64, offered int, allocBytes, allocObjs, heapLive uint64) error {
	var perS, companion []float64
	for _, p := range passes {
		perS = append(perS, float64(p.res.Offered)/p.wall.Seconds())
		companion = append(companion, float64((p.wall-p.decides).Nanoseconds())/1e3/float64(p.res.Offered))
	}
	inOrder := make([]float64, len(policy.durs))
	for i, ns := range policy.durs {
		inOrder[i] = float64(ns) / 1e3
	}
	all := append([]float64(nil), inOrder...)
	sort.Float64s(all)
	p50, err := percentile(all, 0.5)
	if err != nil {
		return fmt.Errorf("admit_p50_us: %w", err)
	}
	p95, n95, err := slicedTail([][]float64{inOrder}, 0.95)
	if err != nil {
		return fmt.Errorf("admit_p95_us: %w", err)
	}
	res.put("setup_s", "s", setup)
	res.put("admit_per_s", "1/s", median(perS))
	res.put("admit_p50_us", "us", p50)
	res.put("admit_p95_us", "us", p95)
	res.put("companion_p50_us", "us", median(companion))
	res.put("alloc_kb_per_op", "KB", float64(allocBytes)/1024/float64(offered))
	res.put("allocs_per_op", "count", float64(allocObjs)/float64(offered))
	res.put("heap_live_mb", "MB", float64(heapLive)/(1<<20))
	fmt.Fprintf(cfg.log, "sim_batch: %d passes, %d jobs, %d verdicts (n=%d over fifths for p95)\n", len(passes), offered, len(all), n95)
	return nil
}

// simLayersOut digests the traced passes.
func simLayersOut(res *result, cfg runConfig, tr *tracer, passes []simPass, layers []simLayers) error {
	if err := tr.write(cfg.traceOut); err != nil {
		return err
	}
	st, err := buildStack(tr.spans, "pass", true)
	if err != nil {
		return err
	}
	st.print(cfg.log, "sim_batch")
	if err := st.check(); err != nil {
		return err
	}
	var walls, freeRes, accommodate, tick []float64
	for i, p := range passes {
		walls = append(walls, float64(p.wall.Nanoseconds())/1e6)
		freeRes = append(freeRes, layers[i].freeRes...)
		accommodate = append(accommodate, layers[i].accommodate...)
		tick = append(tick, layers[i].tick...)
	}
	for _, l := range []struct {
		name string
		vals []float64
	}{{"core.free_resources_us", freeRes}, {"core.accommodate_us", accommodate}, {"core.tick_us", tick}} {
		sort.Float64s(l.vals)
		v, err := percentile(l.vals, 0.5)
		if err != nil {
			return fmt.Errorf("%s: %w", l.name, err)
		}
		res.put(l.name, "us", v)
	}
	// What one FreeResources call allocates, on the fullest state the
	// first pass reached.
	peak := layers[0].peak
	_, objs := allocsPer(32, func(int) { _, _ = peak.FreeResources() })
	res.put("core.free_resources_allocs", "count", objs)
	res.put("sim.pass_ms", "ms", median(walls))
	res.put("sim.admitted", "count", float64(passes[0].res.Admitted))
	res.put("sim.rejected", "count", float64(passes[0].res.Rejected))
	res.put("sim.ticks", "count", float64(layers[0].ticks))
	res.put("trace.unattributed_us", "us", st.unattributed)
	res.put("trace.spans", "count", float64(len(tr.spans)))
	return nil
}
