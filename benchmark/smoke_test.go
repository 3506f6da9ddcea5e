package main

import (
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	bf, err := loadBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	return bf
}

// BENCHMARK.json declares exactly what the program reports.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf := readBenchmarkFile(t)
	names := workloadNames()
	if len(bf.Workloads) != len(names) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bf.Workloads), len(names))
	}
	for i, w := range bf.Workloads {
		if w.Name != names[i] || w.Why == "" {
			t.Errorf("workload %d is %q (why %q), want %q with a reason", i, w.Name, w.Why, names[i])
		}
	}
	if bf.RunSeconds != runSeconds {
		t.Errorf("BENCHMARK.json run_seconds is %d, the program's default -seconds is %d", bf.RunSeconds, runSeconds)
	}
	if len(bf.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end metrics, the program reports %d", len(bf.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range bf.EndToEnd {
		if m.Name != endToEndMetrics[i] {
			t.Errorf("end-to-end metric %d is %q, the program reports %q", i, m.Name, endToEndMetrics[i])
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end metric %s needs a direction and a bound in (0, 0.25]", m.Name)
		}
	}
	if len(bf.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the program reports %d", len(bf.PerLayer), len(perLayerMetrics))
	}
	for i, m := range bf.PerLayer {
		if m.Name != perLayerMetrics[i].name || m.Unit != perLayerMetrics[i].unit || m.Bound != nil {
			t.Errorf("per-layer metric %d is %s [%s], the program reports %s [%s] (and per-layer metrics carry no bound)",
				i, m.Name, m.Unit, perLayerMetrics[i].name, perLayerMetrics[i].unit)
		}
	}
}

// TestSmoke drives all five workloads, both kinds of run, at smoke
// sizes: every metric BENCHMARK.json names comes out exactly once with a
// finite value and its declared unit, no operation fails, every audit is
// clean and no promise is violated.
func TestSmoke(t *testing.T) {
	bf := readBenchmarkFile(t)
	out := t.TempDir()
	for _, w := range bf.Workloads {
		// The untraced run needs two hundred admits for its p95: query_mix
		// spends four operations in five on queries, so it gets longer. The
		// closed-loop half of the traced run needs a thousand for its p99,
		// so it is sized from the rate the untraced run measured, with half
		// as much again to spare — the race detector slows some workloads
		// more than others.
		seconds := 2.0
		if w.Name == "query_mix" {
			seconds = 4
		}
		for _, traced := range []bool{false, true} {
			cfg := runConfig{workload: w.Name, seed: 3, seconds: seconds, trace: traced, smoke: true,
				traceOut: filepath.Join(out, w.Name+".jsonl"), log: io.Discard}
			res, err := runOne(cfg) // refuses missing, extra and non-finite metrics
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w.Name, traced, res.Correct, res.Failed, res.Attempted)
			}
			declared := bf.EndToEnd
			if traced {
				declared = bf.PerLayer
			}
			for _, m := range declared {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.Name, traced, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s: metric %s has unit %q, declared %q", w.Name, m.Name, got.Unit, m.Unit)
				} else if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.Name, m.Name, got.Value)
				}
			}
			if !traced {
				seconds = math.Max(1, 2*1.5*1000/res.Metrics["admit_per_s"].Value)
				continue
			}
			if v := res.Metrics["assure.violated"].Value; v != 0 {
				t.Errorf("%s: %v violated promises", w.Name, v)
			}
			if v := res.Metrics["loadgen.failed"].Value; v != 0 {
				t.Errorf("%s: %v failed operations", w.Name, v)
			}
			if st, err := os.Stat(cfg.traceOut); err != nil || st.Size() == 0 {
				t.Errorf("%s: no span file at %s: %v", w.Name, cfg.traceOut, err)
			}
		}
	}
}

// A traced run too short for its p99 fails; it does not print 0 µs.
func TestShortTracedRunIsRefused(t *testing.T) {
	cfg := runConfig{workload: "query_mix", seed: 3, seconds: 0.5, trace: true, smoke: true,
		traceOut: filepath.Join(t.TempDir(), "spans.jsonl"), log: io.Discard}
	if _, err := runOne(cfg); err == nil || !strings.Contains(err.Error(), "client.admit_p99_us") {
		t.Errorf("a 0.25 s closed loop gave %v; want client.admit_p99_us refused", err)
	}
}
