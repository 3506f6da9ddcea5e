package obs_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/compute"
	"repro/internal/cost"
	"repro/internal/interval"
	"repro/internal/obs/span"
	"repro/internal/resource"
	"repro/internal/server"
	"repro/internal/workload"
)

// The span lint: every span kind must carry a documented attribute
// schema, and live spans may only use registered kinds and schema'd
// attribute keys. Adding a span.Attr call with a new key without
// documenting it in defineKind fails here.

func lintJob(t *testing.T, name string, deadline interval.Time) string {
	t.Helper()
	actor := compute.ActorName(name + ".a")
	c, err := cost.Realize(cost.Paper(), actor, compute.Evaluate(actor, "l1", 1))
	if err != nil {
		t.Fatal(err)
	}
	d, err := compute.NewDistributed(name, 0, deadline, c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(workload.Job{Dist: d, Arrival: 0})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestSpanKindsLint(t *testing.T) {
	// Static half: every registered kind documents itself and each of
	// its attributes (defineKind enforces the pairing; this enforces
	// that the doc strings are not empty placeholders).
	for _, ks := range span.Kinds() {
		if ks.Doc == "" {
			t.Errorf("span kind %q has no doc string", ks.Name)
		}
		for attr, doc := range ks.Attrs {
			if doc == "" {
				t.Errorf("span kind %q attribute %q has no doc string", ks.Name, attr)
			}
		}
	}

	// Live half: drive one admitted and one rejected request through a
	// real server and check every span it recorded against the registry.
	store := span.NewStore(span.DefaultCapacity, "lint")
	var theta resource.Set
	theta.Add(resource.NewTerm(resource.FromUnits(16), resource.CPUAt("l1"), interval.New(0, 100)))
	srv, err := server.New(server.Config{Theta: theta, Spans: store})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		_ = srv.Shutdown(context.Background())
	})
	for _, body := range []string{
		lintJob(t, "lint-ok", 64), // feasible: admit + validate/plan/reserve children
		lintJob(t, "lint-no", 1),  // hopeless deadline: rejected with provenance
	} {
		resp, err := http.Post(ts.URL+"/v1/admit", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	// Terminal spans end via defer after the response is written; give
	// the store a moment to see them.
	var recs []span.Record
	for deadline := time.Now().Add(2 * time.Second); ; {
		recs = store.Snapshot()
		if len(recs) >= 6 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(recs) == 0 {
		t.Fatal("no spans recorded by a live admit")
	}
	for _, rec := range recs {
		ks, ok := span.LookupKind(rec.Kind)
		if !ok {
			t.Errorf("live span uses unregistered kind %q: define it via defineKind", rec.Kind)
			continue
		}
		for key := range rec.Attrs {
			if _, ok := ks.Attrs[key]; !ok {
				t.Errorf("span kind %q carries undocumented attribute %q: document it in defineKind", rec.Kind, key)
			}
		}
		if rec.Status == span.StatusReject && rec.Provenance == nil && rec.Kind == span.KindAdmit {
			t.Errorf("terminal reject span for trace %s has no provenance", rec.Trace)
		}
	}
}
