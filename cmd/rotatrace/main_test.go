package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs/span"
	"repro/internal/trace"
)

func writeTrace(t *testing.T) string {
	t.Helper()
	log := trace.NewLog()
	log.Add(trace.Event{At: 0, Kind: trace.KindJoin, Detail: "stuff"})
	log.Add(trace.Event{At: 1, Kind: trace.KindArrival, Job: "j1", Quantity: 8})
	log.Add(trace.Event{At: 1, Kind: trace.KindAdmit, Job: "j1"})
	log.Add(trace.Event{At: 2, Kind: trace.KindArrival, Job: "j2"})
	// A reject as the simulator writes it: the refusal's text plus its
	// structured provenance.
	log.Add(trace.Event{At: 2, Kind: trace.KindReject, Job: "j2",
		Detail: "no witness schedule: schedule: infeasible: actor j2.a phase 0 needs 8000 of ⟨cpu,l1⟩ in (2,4)",
		Stage:  "plan", Constraint: "witness", Term: "⟨cpu,l1⟩", Window: "(2,4)"})
	log.Add(trace.Event{At: 5, Kind: trace.KindComplete, Job: "j1"})
	path := filepath.Join(t.TempDir(), "run.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := log.WriteJSONL(f); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunSummary(t *testing.T) {
	path := writeTrace(t)
	var sb strings.Builder
	if err := run([]string{path}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"events by kind", "arrival", "admit", "reject", "complete", "response time"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// j1's response time is 4 ticks; mean of one sample = 4.
	if !strings.Contains(out, "4") {
		t.Errorf("response time 4 missing:\n%s", out)
	}
}

func TestRunTimeline(t *testing.T) {
	path := writeTrace(t)
	var sb strings.Builder
	if err := run([]string{"-timeline", path}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "timeline") {
		t.Errorf("timeline missing:\n%s", sb.String())
	}
}

func TestRunEmptyTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(path, nil, 0o600); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run([]string{path}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "empty trace") {
		t.Errorf("expected empty-trace notice, got %q", sb.String())
	}
}

func TestRunErrors(t *testing.T) {
	var sb strings.Builder
	if err := run(nil, &sb); err == nil {
		t.Error("missing argument accepted")
	}
	if err := run([]string{"/nonexistent.jsonl"}, &sb); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(bad, []byte("not json\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{bad}, &sb); err == nil {
		t.Error("malformed trace accepted")
	}
}

// writeSpanDump writes a two-node span dump pair for one trace: the
// admit-side spans in one file, the remote participant's in another, so
// the test exercises cross-file merging the way cross-node dumps merge.
func writeSpanDump(t *testing.T) (string, string) {
	t.Helper()
	dir := t.TempDir()
	local := span.Dump{Trace: "t1", Spans: []span.Record{
		{Trace: "t1", ID: "a", Kind: span.KindCoordinate, Node: "n1", StartUnixNS: 0, DurationUS: 500},
		{Trace: "t1", ID: "b", Parent: "a", Kind: span.KindRPC, Node: "n1", StartUnixNS: 100_000, DurationUS: 300},
	}}
	remote := span.Dump{Trace: "t1", Spans: []span.Record{
		{Trace: "t1", ID: "c", Parent: "b", Kind: span.KindPrepare, Node: "n2", StartUnixNS: 150_000, DurationUS: 100},
	}}
	p1 := filepath.Join(dir, "n1.json")
	p2 := filepath.Join(dir, "n2.json")
	for path, dump := range map[string]span.Dump{p1: local, p2: remote} {
		data, err := json.Marshal(dump)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	return p1, p2
}

func TestRunSpansMergesDumps(t *testing.T) {
	p1, p2 := writeSpanDump(t)
	var sb strings.Builder
	if err := run([]string{"-spans", "-trace", "t1", p1, p2}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"trace t1", "coordinate", "n2:prepare", "critical path", "per-phase latency breakdown"} {
		if !strings.Contains(out, want) {
			t.Errorf("span output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "DISCONNECTED") {
		t.Errorf("merged dumps should form a connected tree:\n%s", out)
	}
}

func TestRunSpansFolded(t *testing.T) {
	p1, p2 := writeSpanDump(t)
	var sb strings.Builder
	if err := run([]string{"-spans", "-folded", p1, p2}, &sb); err != nil {
		t.Fatal(err)
	}
	// Self times: coordinate 500-300=200, rpc 300-100=200, prepare 100.
	for _, want := range []string{
		"n1:coordinate 200",
		"n1:coordinate;n1:rpc 200",
		"n1:coordinate;n1:rpc;n2:prepare 100",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("folded output missing %q:\n%s", want, sb.String())
		}
	}
}

func TestRunSpansBridgesSimTrace(t *testing.T) {
	path := writeTrace(t)
	var sb strings.Builder
	if err := run([]string{"-spans", path}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"trace sim-j1", "sim.job", "[plan/witness term=⟨cpu,l1⟩ window=(2,4)]"} {
		if !strings.Contains(out, want) {
			t.Errorf("bridged sim output missing %q:\n%s", want, out)
		}
	}
}

func TestRunSpansErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-spans"}, &sb); err == nil {
		t.Error("span mode with no sources accepted")
	}
	if err := run([]string{"-spans", "http://127.0.0.1:1"}, &sb); err == nil {
		t.Error("daemon URL without -trace accepted")
	}
}
