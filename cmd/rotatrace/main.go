// Command rotatrace summarizes a JSONL simulation trace produced by
// `rotasim -trace` — event counts by kind, per-job response times
// (arrival → completion), and an optional per-tick activity timeline —
// and, in -spans mode, reconstructs distributed span trees: it merges
// span dumps from daemon /debug/rota/trace endpoints, saved dump files,
// span JSONL, or a sim trace (bridged into the same span model), then
// prints each tree with its critical path and per-phase latency
// breakdown, or flamegraph folded stacks.
//
// Usage:
//
//	rotasim -trace run.jsonl … && rotatrace run.jsonl
//	rotatrace -timeline run.jsonl
//	cat run.jsonl | rotatrace -
//	rotatrace -spans -trace ab12cd34ef56ab78 http://n1:8081 http://n2:8082
//	rotatrace -spans dump1.json dump2.json
//	rotatrace -spans -folded run.jsonl | flamegraph.pl > flame.svg
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/interval"
	"repro/internal/metrics"
	"repro/internal/obs/span"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rotatrace:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rotatrace", flag.ContinueOnError)
	timeline := fs.Bool("timeline", false, "print a per-tick activity timeline")
	spansMode := fs.Bool("spans", false, "reconstruct span trees instead of summarizing a sim trace; sources may be daemon URLs, dump files, span JSONL, sim-trace JSONL, or -")
	traceID := fs.String("trace", "", "spans: trace ID to fetch and select (required when a source is a daemon URL)")
	folded := fs.Bool("folded", false, "spans: emit flamegraph folded stacks instead of trees")
	top := fs.Int("top", 5, "spans: when rendering many traces, print only the N slowest in full")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *spansMode {
		if fs.NArg() == 0 {
			return errors.New("usage: rotatrace -spans [-trace ID] [-folded] <url|dump.json|spans.jsonl|->...")
		}
		return runSpans(fs.Args(), *traceID, *folded, *top, out)
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: rotatrace [-timeline] <trace.jsonl|->")
	}
	var in io.Reader
	if fs.Arg(0) == "-" {
		in = os.Stdin
	} else {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	log, err := trace.ReadJSONL(in)
	if err != nil {
		return err
	}
	events := log.Events()
	if len(events) == 0 {
		fmt.Fprintln(out, "empty trace")
		return nil
	}

	// Counts by kind.
	counts := metrics.NewTable("events by kind", "kind", "count")
	kinds := []trace.Kind{
		trace.KindJoin, trace.KindRenege, trace.KindArrival, trace.KindAdmit,
		trace.KindReject, trace.KindComplete, trace.KindMiss, trace.KindViolation,
	}
	for _, k := range kinds {
		if n := len(log.Filter(k)); n > 0 {
			counts.AddRow(string(k), n)
		}
	}
	counts.Render(out)

	// Per-job response times.
	arrival := make(map[string]interval.Time)
	type outcome struct {
		at   interval.Time
		kind trace.Kind
	}
	finished := make(map[string]outcome)
	for _, e := range events {
		switch e.Kind {
		case trace.KindArrival:
			arrival[e.Job] = e.At
		case trace.KindComplete, trace.KindMiss:
			if _, seen := finished[e.Job]; !seen {
				finished[e.Job] = outcome{at: e.At, kind: e.Kind}
			}
		}
	}
	var responses []float64
	for job, oc := range finished {
		if oc.kind != trace.KindComplete {
			continue
		}
		if start, ok := arrival[job]; ok {
			responses = append(responses, float64(oc.at-start))
		}
	}
	if len(responses) > 0 {
		fmt.Fprintln(out)
		rt := metrics.NewTable("response time (arrival → on-time completion, ticks)",
			"n", "mean", "p50", "p95", "max")
		rt.AddRow(len(responses),
			metrics.Mean(responses),
			metrics.Percentile(responses, 50),
			metrics.Percentile(responses, 95),
			metrics.Percentile(responses, 100))
		rt.Render(out)
	}

	if *timeline {
		fmt.Fprintln(out)
		perTick := make(map[interval.Time]map[trace.Kind]int)
		for _, e := range events {
			if perTick[e.At] == nil {
				perTick[e.At] = make(map[trace.Kind]int)
			}
			perTick[e.At][e.Kind]++
		}
		ticks := make([]interval.Time, 0, len(perTick))
		for t := range perTick {
			ticks = append(ticks, t)
		}
		sort.Slice(ticks, func(i, j int) bool { return ticks[i] < ticks[j] })
		tl := metrics.NewTable("timeline (ticks with activity)",
			"t", "join", "renege", "arrive", "admit", "reject", "complete", "miss", "violation")
		for _, t := range ticks {
			row := perTick[t]
			tl.AddRow(t,
				row[trace.KindJoin], row[trace.KindRenege], row[trace.KindArrival],
				row[trace.KindAdmit], row[trace.KindReject], row[trace.KindComplete],
				row[trace.KindMiss], row[trace.KindViolation])
		}
		tl.Render(out)
	}
	return nil
}

// runSpans merges span records from every source, groups them into
// trees, and renders each tree with its critical path and per-phase
// latency breakdown (or folded stacks).
func runSpans(sources []string, traceID string, folded bool, top int, out io.Writer) error {
	var records []span.Record
	for _, src := range sources {
		recs, err := loadSpanSource(src, traceID)
		if err != nil {
			return err
		}
		records = append(records, recs...)
	}
	if len(records) == 0 {
		fmt.Fprintln(out, "no spans")
		return nil
	}

	var trees []*span.Tree
	if traceID != "" {
		trees = []*span.Tree{span.BuildTree(traceID, records)}
	} else {
		trees = span.BuildTrees(records)
	}
	if folded {
		for _, t := range trees {
			t.WriteFolded(out)
		}
		return nil
	}

	// Many traces (a bridged sim run, a whole store dump): render the
	// slowest in full, summarize the rest.
	sort.Slice(trees, func(i, j int) bool { return treeDurationUS(trees[i]) > treeDurationUS(trees[j]) })
	rendered := trees
	if top > 0 && len(trees) > top {
		rendered = trees[:top]
	}
	if len(rendered) < len(trees) {
		disconnected := 0
		for _, t := range trees {
			if !t.Connected() {
				disconnected++
			}
		}
		fmt.Fprintf(out, "%d traces (%d disconnected); rendering the %d slowest\n\n",
			len(trees), disconnected, len(rendered))
	}
	for _, t := range rendered {
		renderSpanTree(t, out)
	}
	return nil
}

func treeDurationUS(t *span.Tree) int64 {
	var max int64
	for _, r := range t.Roots {
		if r.DurationUS > max {
			max = r.DurationUS
		}
	}
	return max
}

func renderSpanTree(t *span.Tree, out io.Writer) {
	t.WriteTree(out)
	fmt.Fprintln(out)
	t.WriteBreakdown(out, "critical path")
}

// loadSpanSource reads one source of span records: a daemon base URL
// (fetches /debug/rota/trace/{id}), a file, or - for stdin. File
// contents are auto-detected: a span.Dump object, span-record JSONL, or
// a sim-trace JSONL (bridged into spans).
func loadSpanSource(src, traceID string) ([]span.Record, error) {
	if strings.HasPrefix(src, "http://") || strings.HasPrefix(src, "https://") {
		if traceID == "" {
			return nil, fmt.Errorf("fetching spans from %s needs -trace <id>", src)
		}
		return fetchSpanDump(strings.TrimSuffix(src, "/"), traceID)
	}
	var data []byte
	var err error
	if src == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(src)
	}
	if err != nil {
		return nil, err
	}
	return parseSpanData(data)
}

func fetchSpanDump(baseURL, traceID string) ([]span.Record, error) {
	client := &http.Client{Timeout: 10 * time.Second}
	url := baseURL + "/debug/rota/trace/" + traceID
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s returned %d: %s", url, resp.StatusCode, bytes.TrimSpace(data))
	}
	var dump span.Dump
	if err := json.Unmarshal(data, &dump); err != nil {
		return nil, fmt.Errorf("%s returned unparsable dump: %w", url, err)
	}
	return dump.Spans, nil
}

// parseSpanData sniffs the first JSON object to pick a format: a "spans"
// key means a span.Dump, a "span" key means span-record JSONL, anything
// else is treated as a sim trace and bridged into the span model.
func parseSpanData(data []byte) ([]span.Record, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	var first map[string]json.RawMessage
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if err := json.Unmarshal(line, &first); err != nil {
			return nil, fmt.Errorf("rotatrace: unparsable JSON line: %w", err)
		}
		break
	}
	if first == nil {
		return nil, nil
	}
	if _, ok := first["spans"]; ok {
		var dump span.Dump
		if err := json.Unmarshal(bytes.TrimSpace(data), &dump); err != nil {
			return nil, fmt.Errorf("rotatrace: bad span dump: %w", err)
		}
		return dump.Spans, nil
	}
	if _, ok := first["span"]; ok {
		var records []span.Record
		sc := bufio.NewScanner(bytes.NewReader(data))
		sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
		for sc.Scan() {
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 {
				continue
			}
			var rec span.Record
			if err := json.Unmarshal(line, &rec); err != nil {
				return nil, fmt.Errorf("rotatrace: bad span record: %w", err)
			}
			records = append(records, rec)
		}
		return records, sc.Err()
	}
	log, err := trace.ReadJSONL(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	return span.Bridge(log), nil
}
