// Command benchmark is the ROTA benchmark: one generator process boots
// the system in-process as cmd/rotad configures it by default, drives a
// named workload from two closed-loop clients, checks every output, and
// prints the metrics BENCHMARK.json declares.
//
//	benchmark -workload admit_loaded -seed 7 -seconds 15 -trace 0   one run, end-to-end metrics
//	benchmark -workload admit_loaded -seed 7 -seconds 15 -trace 1   one run, per-layer metrics
//	benchmark -seed 7                                               all five workloads, both kinds
//	benchmark -repeat 5                                             five sets, spreads against the bounds
//
// The last line of standard output is one JSON object; tables and
// progress go to standard error. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string, out, log io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(log)
	workload := fs.String("workload", "", "run one workload: "+strings.Join(workloadNames(), ", ")+" (default: all five)")
	seed := fs.Int64("seed", simGoldenSeed, "generator seed; the daemon sees only generated requests")
	seconds := fs.Float64("seconds", runSeconds, "measured seconds of one run")
	trace := fs.Int("trace", -1, "0: closed-loop run, end-to-end metrics; 1: traced run, per-layer metrics (default: both)")
	traceOut := fs.String("trace-out", "", "span file of a traced run (default benchmark/out/<workload>-seed<N>.jsonl)")
	repeat := fs.Int("repeat", 1, "run this many full sets and compare each end-to-end metric's spread with its bound")
	smoke := fs.Bool("smoke", false, "small ledgers and passes (the package's tests)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *seconds <= 0 || *repeat < 1 || *trace < -1 || *trace > 1 {
		return errors.New("need -seconds > 0, -repeat >= 1, -trace 0 or 1")
	}
	base := runConfig{seed: *seed, seconds: *seconds, smoke: *smoke, log: log}

	// The contract's form: one workload, one kind of run, one JSON object.
	if *workload != "" && *trace >= 0 && *repeat == 1 {
		cfg := base
		cfg.workload, cfg.trace, cfg.traceOut = *workload, *trace == 1, *traceOut
		res, err := runOne(cfg)
		if err != nil {
			return err
		}
		printMetrics(log, cfg.workload, res)
		if err := json.NewEncoder(out).Encode(res); err != nil {
			return err
		}
		if !res.Correct {
			return fmt.Errorf("%s: output checks failed (%d of %d operations)", cfg.workload, res.Failed, res.Attempted)
		}
		return nil
	}

	names := workloadNames()
	if *workload != "" {
		names = []string{*workload}
	}
	kinds := []bool{false, true}
	if *trace >= 0 {
		kinds = []bool{*trace == 1}
	}
	if *traceOut != "" {
		return errors.New("-trace-out names one file: give -workload and -trace 1 with it")
	}
	printEnv(log, base)
	var sets []map[string]*result
	for k := 0; k < *repeat; k++ {
		set := make(map[string]*result)
		for _, name := range names {
			merged := &result{Correct: true, Metrics: make(map[string]metric)}
			for _, traced := range kinds {
				cfg := base
				cfg.workload, cfg.trace = name, traced
				res, err := runOne(cfg)
				if err != nil {
					return fmt.Errorf("%s: %w", name, err)
				}
				merged.Correct = merged.Correct && res.Correct
				merged.Attempted += res.Attempted
				merged.Failed += res.Failed
				for m, v := range res.Metrics {
					merged.Metrics[m] = v
				}
			}
			printMetrics(log, fmt.Sprintf("%s (set %d)", name, k+1), merged)
			set[name] = merged
		}
		sets = append(sets, set)
	}
	if err := json.NewEncoder(out).Encode(map[string]any{"env": environment(base), "workloads": sets[len(sets)-1]}); err != nil {
		return err
	}
	for _, set := range sets {
		for name, res := range set {
			if !res.Correct {
				return fmt.Errorf("%s: output checks failed (%d of %d operations)", name, res.Failed, res.Attempted)
			}
		}
	}
	if *repeat > 1 {
		return compareSets(log, names, sets)
	}
	return nil
}

// runOne performs one run and holds it to the contract: every declared
// metric present once, finite, nothing else.
func runOne(cfg runConfig) (*result, error) {
	if cfg.traceOut == "" {
		cfg.traceOut = defaultTraceOut(cfg.workload, cfg.seed)
	}
	res, err := runWorkload(cfg)
	if err != nil {
		return nil, err
	}
	want := len(endToEndMetrics)
	if cfg.trace {
		want = len(perLayerMetrics)
		if err := fillUnexercised(res, cfg.workload); err != nil {
			return nil, err
		}
	} else {
		for _, name := range endToEndMetrics {
			if _, ok := res.Metrics[name]; !ok {
				return nil, fmt.Errorf("%s did not measure %s", cfg.workload, name)
			}
		}
	}
	if len(res.Metrics) != want {
		return nil, fmt.Errorf("%s reported %d metrics, declared %d", cfg.workload, len(res.Metrics), want)
	}
	return res, res.finite()
}

// endToEndMetrics names the end-to-end metrics; every workload reports
// all of them (see README.md for what each means on each workload).
var endToEndMetrics = []string{
	"setup_s", "admit_per_s", "admit_p50_us", "admit_p95_us", "companion_p50_us",
	"alloc_kb_per_op", "allocs_per_op", "heap_live_mb",
}

func printMetrics(w io.Writer, title string, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "== %s: correct=%v attempted=%d failed=%d\n", title, res.Correct, res.Attempted, res.Failed)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "  %-30s %14.4f %s\n", name, m.Value, m.Unit)
	}
}

// environment is the fingerprint printed with every multi-run report.
func environment(cfg runConfig) map[string]any {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"setups":     cfg.setups(),
		"clients":    numClients,
		"smoke":      cfg.smoke,
	}
}

func printEnv(w io.Writer, cfg runConfig) {
	env := environment(cfg)
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprint(w, "env:")
	for _, k := range keys {
		fmt.Fprintf(w, " %s=%v", k, env[k])
	}
	fmt.Fprintln(w)
}

// benchmarkFile is the shape of BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"` // end-to-end metrics only
}

// loadBenchmarkFile finds BENCHMARK.json from the repository root or
// from this directory.
func loadBenchmarkFile() (benchmarkFile, error) {
	var bf benchmarkFile
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		return bf, json.Unmarshal(data, &bf)
	}
	return bf, errors.New("BENCHMARK.json not found in . or ..")
}

// compareSets prints, per end-to-end metric and workload, the median,
// the quartiles and the largest relative difference between sets, and
// fails when any of them disagrees by more than the metric's bound.
func compareSets(w io.Writer, names []string, sets []map[string]*result) error {
	d, err := loadBenchmarkFile()
	if err != nil {
		return err
	}
	var over []string
	fmt.Fprintf(w, "\n%d sets — spread of every end-to-end metric against its bound\n", len(sets))
	fmt.Fprintf(w, "%-14s %-18s %12s %12s %12s %8s %8s %6s\n", "workload", "metric", "q1", "median", "q3", "iqr/med", "max-diff", "bound")
	for _, name := range names {
		for _, m := range d.EndToEnd {
			if m.Bound == nil {
				return fmt.Errorf("BENCHMARK.json: end-to-end metric %s has no bound", m.Name)
			}
			var vals []float64
			for _, set := range sets {
				if v, ok := set[name].Metrics[m.Name]; ok {
					vals = append(vals, v.Value)
				}
			}
			if len(vals) < 2 {
				continue
			}
			q1, med, q3 := quartiles(vals)
			sort.Float64s(vals)
			maxDiff := (vals[len(vals)-1] - vals[0]) / med
			flag := ""
			if maxDiff > *m.Bound {
				flag = "  OVER"
				over = append(over, fmt.Sprintf("%s/%s %.3f > %.2f", name, m.Name, maxDiff, *m.Bound))
			}
			fmt.Fprintf(w, "%-14s %-18s %12.3f %12.3f %12.3f %8.3f %8.3f %6.2f%s\n",
				name, m.Name, q1, med, q3, (q3-q1)/med, maxDiff, *m.Bound, flag)
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("%d end-to-end metrics disagree between sets by more than their bound: %s", len(over), strings.Join(over, "; "))
	}
	return nil
}
