package span

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/trace"
)

// Bridge converts a simulator JSONL trace into span records so one tool
// (rotatrace -spans) analyses simulator runs and live-daemon runs with
// the same tree / critical-path / folded-stack machinery.
//
// Each job becomes one synthetic trace "sim-<job>" rooted at a sim.job
// span covering arrival through its terminal event; every event the job
// produced becomes a zero-parent-overlap sim.event child. Simulated
// ticks are mapped to a synthetic wall clock at 1ms per tick, so
// relative durations in the rendered tree mirror simulated time.
// A reject event's stage, constraint, term and window — written by the
// simulator from the typed refusal — become its provenance, so
// simulated rejections carry the same structure live ones do; an event
// without them (an older file, a non-ROTA policy) explains as
// other/other.
func Bridge(log *trace.Log) []Record {
	const tickNS = int64(1_000_000) // 1 simulated tick -> 1ms synthetic wall time
	if log == nil {
		return nil
	}
	events := log.Events()

	type jobAgg struct {
		first, last trace.Event
		events      []trace.Event
		outcome     trace.Kind
	}
	jobs := map[string]*jobAgg{}
	order := []string{}
	var out []Record

	solo := 0
	for _, e := range events {
		if e.Job == "" {
			// Resource join/renege events have no job; emit them as
			// standalone single-span traces so they still show up. The
			// counter keeps same-tick events in distinct traces.
			id := fmt.Sprintf("sim-%s-%d-%d", e.Kind, e.At, solo)
			solo++
			out = append(out, Record{
				Trace:       id,
				ID:          obs.MintID(),
				Kind:        KindSimEvent,
				Node:        "sim",
				StartUnixNS: int64(e.At) * tickNS,
				Attrs:       eventAttrs(e),
				Status:      StatusOK,
			})
			continue
		}
		agg, ok := jobs[e.Job]
		if !ok {
			agg = &jobAgg{first: e}
			jobs[e.Job] = agg
			order = append(order, e.Job)
		}
		agg.last = e
		agg.events = append(agg.events, e)
		switch e.Kind {
		case trace.KindAdmit, trace.KindReject, trace.KindComplete, trace.KindMiss, trace.KindRenege:
			agg.outcome = e.Kind
		}
	}

	for _, job := range order {
		agg := jobs[job]
		traceID := "sim-" + job
		rootID := obs.MintID()
		span := int64(agg.last.At-agg.first.At) * tickNS
		root := Record{
			Trace:       traceID,
			ID:          rootID,
			Kind:        KindSimJob,
			Node:        "sim",
			StartUnixNS: int64(agg.first.At) * tickNS,
			DurationUS:  span / 1000,
			Attrs:       map[string]string{"job": job, "outcome": string(agg.outcome)},
			Status:      StatusOK,
		}
		for _, e := range agg.events {
			rec := Record{
				Trace:       traceID,
				ID:          obs.MintID(),
				Parent:      rootID,
				Kind:        KindSimEvent,
				Node:        "sim",
				StartUnixNS: int64(e.At) * tickNS,
				Attrs:       eventAttrs(e),
				Status:      StatusOK,
			}
			switch e.Kind {
			case trace.KindReject:
				rec.Status = StatusReject
				rec.Provenance = &Provenance{Stage: e.Stage, Constraint: e.Constraint,
					Term: e.Term, Window: e.Window, Detail: e.Detail}
				if e.Stage == "" {
					rec.Provenance.Stage, rec.Provenance.Constraint = "other", "other"
				}
				root.Status, root.Provenance = StatusReject, rec.Provenance
			case trace.KindMiss, trace.KindViolation:
				rec.Status = StatusError
			}
			out = append(out, rec)
		}
		out = append(out, root)
	}
	return out
}

func eventAttrs(e trace.Event) map[string]string {
	attrs := map[string]string{"event": string(e.Kind)}
	if e.Detail != "" {
		attrs["detail"] = e.Detail
	}
	if e.Quantity != 0 {
		attrs["qty"] = fmt.Sprintf("%d", e.Quantity)
	}
	return attrs
}
