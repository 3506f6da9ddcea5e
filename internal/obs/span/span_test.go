package span_test

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/admission"
	"repro/internal/churn"
	"repro/internal/compute"
	"repro/internal/cost"
	"repro/internal/interval"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestStartParentsOnContextSpan(t *testing.T) {
	st := span.NewStore(16, "n1")
	ctx := obs.WithTrace(context.Background(), "trace-1")
	ctx, root := st.Start(ctx, span.KindAdmit)
	root.Attr("job", "j1")
	ctx2, child := st.Start(ctx, span.KindPlan)
	_ = ctx2
	child.End()
	root.SetStatus(span.StatusReject)
	root.End()

	recs := st.Trace("trace-1")
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	byKind := map[string]span.Record{}
	for _, r := range recs {
		byKind[r.Kind] = r
	}
	if byKind[span.KindPlan].Parent != byKind[span.KindAdmit].ID {
		t.Errorf("plan span parent = %q, want admit span ID %q", byKind[span.KindPlan].Parent, byKind[span.KindAdmit].ID)
	}
	if byKind[span.KindAdmit].Parent != "" {
		t.Errorf("root span has parent %q", byKind[span.KindAdmit].Parent)
	}
	if byKind[span.KindAdmit].Attrs["job"] != "j1" {
		t.Errorf("attrs = %v", byKind[span.KindAdmit].Attrs)
	}
	if byKind[span.KindAdmit].Status != span.StatusReject {
		t.Errorf("status = %q", byKind[span.KindAdmit].Status)
	}
	if byKind[span.KindAdmit].Node != "n1" {
		t.Errorf("node = %q", byKind[span.KindAdmit].Node)
	}
}

func TestStartUsesRemoteParent(t *testing.T) {
	st := span.NewStore(16, "n2")
	ctx := obs.WithTrace(context.Background(), "trace-2")
	ctx = obs.WithSpanParent(ctx, "remote-span-id")
	_, sp := st.Start(ctx, span.KindPrepare)
	sp.End()
	recs := st.Trace("trace-2")
	if len(recs) != 1 || recs[0].Parent != "remote-span-id" {
		t.Fatalf("records = %+v, want single span with remote parent", recs)
	}
}

func TestStartMintsTraceWhenAbsent(t *testing.T) {
	st := span.NewStore(16, "n1")
	_, sp := st.Start(context.Background(), span.KindAdmit)
	if sp.TraceID() == "" {
		t.Fatal("span has no trace ID")
	}
	sp.End()
	if got := len(st.Trace(sp.TraceID())); got != 1 {
		t.Fatalf("got %d records", got)
	}
}

func TestNilStoreAndNilSpanAreSafe(t *testing.T) {
	var st *span.Store
	ctx, sp := st.Start(context.Background(), span.KindAdmit)
	if ctx == nil || sp != nil {
		t.Fatal("nil store must return unchanged ctx and nil span")
	}
	sp.Attr("k", "v")
	sp.SetStatus(span.StatusError)
	sp.SetProvenance(&span.Provenance{Stage: "x"})
	sp.End()
	if sp.ID() != "" || sp.TraceID() != "" {
		t.Fatal("nil span must return empty IDs")
	}
	if st.Trace("x") != nil || st.Snapshot() != nil {
		t.Fatal("nil store must return nil slices")
	}
	if st.Stats() != (span.Stats{}) {
		t.Fatal("nil store stats must be zero")
	}
	span.Inject(ctx, http.Header{}) // must not panic
}

func TestEndIsIdempotentAndSealsSpan(t *testing.T) {
	st := span.NewStore(16, "n1")
	ctx := obs.WithTrace(context.Background(), "t")
	_, sp := st.Start(ctx, span.KindAdmit)
	sp.End()
	sp.Attr("late", "x")
	sp.SetStatus(span.StatusError)
	sp.End()
	recs := st.Trace("t")
	if len(recs) != 1 {
		t.Fatalf("double End recorded %d spans", len(recs))
	}
	if recs[0].Attrs["late"] != "" || recs[0].Status != span.StatusOK {
		t.Errorf("mutation after End leaked into record: %+v", recs[0])
	}
}

func TestRingBufferEviction(t *testing.T) {
	st := span.NewStore(4, "n1")
	for i := 0; i < 10; i++ {
		ctx := obs.WithTrace(context.Background(), fmt.Sprintf("t%d", i))
		_, sp := st.Start(ctx, span.KindAdmit)
		sp.End()
	}
	stats := st.Stats()
	if stats.Capacity != 4 || stats.Live != 4 {
		t.Fatalf("stats = %+v, want capacity=4 live=4", stats)
	}
	if stats.Recorded != 10 || stats.Evicted != 6 {
		t.Fatalf("stats = %+v, want recorded=10 evicted=6", stats)
	}
	// Oldest six evicted: only t6..t9 remain.
	if st.Trace("t5") != nil {
		t.Error("evicted trace t5 still present")
	}
	if len(st.Trace("t9")) != 1 {
		t.Error("latest trace t9 missing")
	}
	if got := len(st.Snapshot()); got != 4 {
		t.Errorf("snapshot has %d records", got)
	}
}

func TestInjectSetsHeaderFromLiveSpan(t *testing.T) {
	st := span.NewStore(16, "n1")
	ctx, sp := st.Start(obs.WithTrace(context.Background(), "t"), span.KindRPC)
	h := http.Header{}
	span.Inject(ctx, h)
	if h.Get(obs.HeaderSpanParent) != sp.ID() {
		t.Fatalf("header = %q, want %q", h.Get(obs.HeaderSpanParent), sp.ID())
	}
	// With no live span but a propagated remote parent, forward that.
	h2 := http.Header{}
	span.Inject(obs.WithSpanParent(context.Background(), "upstream"), h2)
	if h2.Get(obs.HeaderSpanParent) != "upstream" {
		t.Fatalf("header = %q, want upstream", h2.Get(obs.HeaderSpanParent))
	}
}

func TestDetachCarriesTraceAndSpan(t *testing.T) {
	st := span.NewStore(16, "n1")
	base, cancel := context.WithCancel(obs.WithTrace(context.Background(), "t-detach"))
	ctx, sp := st.Start(base, span.KindMigrate)
	det := span.Detach(ctx)
	cancel()
	if det.Err() != nil {
		t.Fatal("detached context inherited cancellation")
	}
	if obs.Trace(det) != "t-detach" {
		t.Fatalf("detached trace = %q", obs.Trace(det))
	}
	_, child := st.Start(det, span.KindAbort)
	child.End()
	sp.End()
	byKind := map[string]span.Record{}
	for _, r := range st.Trace("t-detach") {
		byKind[r.Kind] = r
	}
	if byKind[span.KindAbort].Parent != byKind[span.KindMigrate].ID {
		t.Fatalf("abort span parent = %q, want migrate span ID %q",
			byKind[span.KindAbort].Parent, byKind[span.KindMigrate].ID)
	}

	// Remote-parent-only contexts must keep the parent too.
	det2 := span.Detach(obs.WithSpanParent(obs.WithTrace(context.Background(), "t2"), "up"))
	if obs.SpanParent(det2) != "up" {
		t.Fatalf("detached remote parent = %q", obs.SpanParent(det2))
	}
}

// TestStoreConcurrency is the -race coverage the satellite asks for:
// parallel writers pushing through eviction while readers pull trace
// queries, snapshots and stats.
func TestStoreConcurrency(t *testing.T) {
	st := span.NewStore(64, "n1")
	const writers, perWriter, readers = 8, 200, 4
	var writerWG, readerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for i := 0; i < perWriter; i++ {
				ctx := obs.WithTrace(context.Background(), fmt.Sprintf("t%d", w))
				ctx, root := st.Start(ctx, span.KindAdmit)
				root.Attr("job", fmt.Sprintf("j%d-%d", w, i))
				_, child := st.Start(ctx, span.KindPlan)
				child.SetStatus(span.StatusReject)
				child.SetProvenance(&span.Provenance{Stage: "validate", Constraint: "deadline", Detail: "deadline 5 already passed at t=9"})
				child.End()
				root.End()
			}
		}(w)
	}
	done := make(chan struct{})
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				_ = st.Trace(fmt.Sprintf("t%d", r%writers))
				_ = st.Snapshot()
				_ = st.Recent(8)
				_ = st.Stats()
			}
		}(r)
	}
	writerWG.Wait()
	close(done)
	readerWG.Wait()

	stats := st.Stats()
	want := uint64(writers * perWriter * 2)
	if stats.Recorded != want {
		t.Fatalf("recorded %d spans, want %d", stats.Recorded, want)
	}
	if stats.Live != 64 || stats.Evicted != want-64 {
		t.Fatalf("stats = %+v, want live=64 evicted=%d", stats, want-64)
	}
}

func TestKindRegistryComplete(t *testing.T) {
	kinds := span.Kinds()
	if len(kinds) == 0 {
		t.Fatal("no kinds registered")
	}
	for _, ks := range kinds {
		if ks.Doc == "" {
			t.Errorf("kind %q has no documentation", ks.Name)
		}
		for attr, doc := range ks.Attrs {
			if doc == "" {
				t.Errorf("kind %q attr %q has no documentation", ks.Name, attr)
			}
		}
	}
	if _, ok := span.LookupKind(span.KindAdmit); !ok {
		t.Error("admit kind not registered")
	}
	if _, ok := span.LookupKind("bogus"); ok {
		t.Error("bogus kind registered")
	}
}

func TestBuildTreeAndCriticalPath(t *testing.T) {
	// admit(0-100us) -> plan(10-40), reserve(50-95 -> the critical child)
	rs := []span.Record{
		{Trace: "t", ID: "a", Kind: span.KindAdmit, StartUnixNS: 0, DurationUS: 100},
		{Trace: "t", ID: "b", Parent: "a", Kind: span.KindPlan, StartUnixNS: 10_000, DurationUS: 30},
		{Trace: "t", ID: "c", Parent: "a", Kind: span.KindReserve, StartUnixNS: 50_000, DurationUS: 45},
		{Trace: "t", ID: "d", Parent: "c", Kind: span.KindRPC, StartUnixNS: 60_000, DurationUS: 20},
	}
	tree := span.BuildTree("t", rs)
	if !tree.Connected() {
		t.Fatalf("tree not connected: %d roots, %d orphans", len(tree.Roots), tree.Orphans)
	}
	path := tree.CriticalPath()
	var kinds []string
	for _, n := range path {
		kinds = append(kinds, n.Kind)
	}
	want := []string{span.KindAdmit, span.KindReserve, span.KindRPC}
	if strings.Join(kinds, ",") != strings.Join(want, ",") {
		t.Fatalf("critical path = %v, want %v", kinds, want)
	}
	breakdown := tree.PhaseBreakdown()
	if breakdown[span.KindAdmit] != 100 || breakdown[span.KindPlan] != 30 {
		t.Fatalf("breakdown = %v", breakdown)
	}

	var b strings.Builder
	tree.WriteFolded(&b)
	folded := b.String()
	// admit self = 100 - 30 - 45 = 25; reserve self = 45 - 20 = 25.
	if !strings.Contains(folded, "admit 25") {
		t.Errorf("folded output missing admit self time:\n%s", folded)
	}
	if !strings.Contains(folded, "admit;reserve;rpc 20") {
		t.Errorf("folded output missing nested stack:\n%s", folded)
	}
}

func TestBuildTreeDisconnected(t *testing.T) {
	rs := []span.Record{
		{Trace: "t", ID: "a", Kind: span.KindAdmit},
		{Trace: "t", ID: "b", Parent: "missing", Kind: span.KindAbort},
	}
	tree := span.BuildTree("t", rs)
	if tree.Connected() {
		t.Fatal("tree with a missing parent must not be connected")
	}
	if tree.Orphans != 1 || len(tree.Roots) != 2 {
		t.Fatalf("roots=%d orphans=%d", len(tree.Roots), tree.Orphans)
	}
}

func TestBridgeSimTrace(t *testing.T) {
	var avail churn.Trace
	avail.Base.Add(resource.NewTerm(resource.FromUnits(2), resource.CPUAt("l1"), interval.New(0, 40)))
	// j2 is hopeless: its 8 cpu cannot fit 2 cpu/tick within (0,2).
	jobs := []workload.Job{evalJob(t, "j1", 10), evalJob(t, "j2", 2)}
	log := trace.NewLog()
	if _, err := sim.Run(sim.Config{Policy: &admission.Rota{}, Executor: sim.Planned, Trace: log}, jobs, avail); err != nil {
		t.Fatal(err)
	}
	// A reject from an older file carries no structured fields.
	log.Add(trace.Event{At: 1, Kind: trace.KindReject, Job: "j3", Detail: "aggregate shortfall"})

	recs := span.Bridge(log)
	trees := span.BuildTrees(recs)
	byTrace := map[string]*span.Tree{}
	for _, tr := range trees {
		byTrace[tr.Trace] = tr
	}
	j1 := byTrace["sim-j1"]
	if j1 == nil || !j1.Connected() || j1.Spans != 4 {
		t.Fatalf("sim-j1 tree = %+v", j1)
	}
	if j1.Roots[0].Kind != span.KindSimJob || j1.Roots[0].Attrs["outcome"] != string(trace.KindComplete) {
		t.Fatalf("sim-j1 root = %+v", j1.Roots[0].Record)
	}
	for job, want := range map[string]span.Provenance{
		"j2": {Stage: "plan", Constraint: "witness", Term: "⟨cpu,l1⟩", Window: "(0,2)",
			Detail: "no witness schedule: schedule: infeasible: actor j2.a phase 0 needs 8000 of ⟨cpu,l1⟩ in (0,2)"},
		"j3": {Stage: "other", Constraint: "other", Detail: "aggregate shortfall"},
	} {
		tr := byTrace["sim-"+job]
		if tr == nil || tr.Roots[0].Provenance == nil {
			t.Fatalf("rejected sim job %s lost its provenance", job)
		}
		if got := *tr.Roots[0].Provenance; got != want {
			t.Errorf("sim %s reject provenance = %+v, want %+v", job, got, want)
		}
	}
}

// evalJob is a one-actor job evaluating once (8 cpu) at l1 in (0, deadline).
func evalJob(t *testing.T, name string, deadline interval.Time) workload.Job {
	t.Helper()
	actor := compute.ActorName(name + ".a")
	c, err := cost.Realize(cost.Paper(), actor, compute.Evaluate(actor, "l1", 1))
	if err != nil {
		t.Fatal(err)
	}
	dist, err := compute.NewDistributed(name, 0, deadline, c)
	if err != nil {
		t.Fatal(err)
	}
	return workload.Job{Dist: dist}
}
