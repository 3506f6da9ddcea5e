package assure

import (
	"testing"
	"time"

	"repro/internal/resource"
)

func locs(names ...string) []resource.Location {
	out := make([]resource.Location, len(names))
	for i, n := range names {
		out[i] = resource.Location(n)
	}
	return out
}

func TestReserveReleaseKept(t *testing.T) {
	l := New("n1")
	l.Reserve("j1", 0, 80, 100, 7, locs("l1", "l2"))

	st := l.Stats()
	if st.Active != 1 || st.Kept != 0 {
		t.Fatalf("after reserve: active=%d kept=%d, want 1/0", st.Active, st.Kept)
	}
	p, ok := l.Lookup("j1")
	if !ok || p.State != StateActive || p.SlackAtAdmit != 20 || p.Epoch != 7 {
		t.Fatalf("active lookup = %+v ok=%v", p, ok)
	}

	if got := l.Release("j1", 90); got != StateKept {
		t.Fatalf("release at 90 = %q, want kept", got)
	}
	st = l.Stats()
	if st.Active != 0 || st.Kept != 1 || st.Attainment != 1 {
		t.Fatalf("after release: %+v", st)
	}
	p, ok = l.Lookup("j1")
	if !ok || p.State != StateKept || p.ResolvedAt != 90 || p.SlackAtCompletion != 10 {
		t.Fatalf("resolved lookup = %+v ok=%v", p, ok)
	}
	if st.SlackAdmit.Count != 1 || st.SlackAdmit.Mean != 20 {
		t.Fatalf("slack-at-admit digest = %+v", st.SlackAdmit)
	}
	if st.SlackCompletion.Count != 1 || st.SlackCompletion.Mean != 10 {
		t.Fatalf("slack-at-completion digest = %+v", st.SlackCompletion)
	}
}

func TestReleaseAfterDeadlineViolates(t *testing.T) {
	l := New("n1")
	l.Reserve("late", 0, 50, 60, 1, locs("l1"))
	if got := l.Release("late", 61); got != StateViolated {
		t.Fatalf("release past deadline = %q, want violated", got)
	}
	st := l.Stats()
	if st.Violated != 1 || st.Attainment != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if p, _ := l.Lookup("late"); p.SlackAtCompletion != -1 {
		t.Fatalf("slack at completion = %d, want -1", p.SlackAtCompletion)
	}
}

func TestReleaseUnknownJob(t *testing.T) {
	l := New("n1")
	if got := l.Release("ghost", 10); got != "" {
		t.Fatalf("release of unknown job = %q, want empty", got)
	}
}

func TestCompleteCapsAtFinish(t *testing.T) {
	l := New("n1")
	l.Reserve("j", 0, 40, 100, 1, locs("l1"))
	// Sweep-driven completion at tick 90: the job ran its plan, which
	// finished at 40, so slack is measured there (60), not at the sweep.
	l.Complete("j", 90)
	p, ok := l.Lookup("j")
	if !ok || p.State != StateKept || p.ResolvedAt != 40 || p.SlackAtCompletion != 60 {
		t.Fatalf("completed promise = %+v ok=%v", p, ok)
	}
}

func TestAdoptMergesActivePromise(t *testing.T) {
	l := New("n1")
	l.Reserve("j", 0, 40, 100, 1, locs("l1"))
	// A second owner's share arrives: wider finish, same job. The promise
	// must merge, not double-count.
	l.Adopt("j", 0, 55, 100, 2, locs("l2", "l1"))
	if st := l.Stats(); st.Active != 1 {
		t.Fatalf("active = %d after adopt-merge, want 1", st.Active)
	}
	p, _ := l.Lookup("j")
	if p.Finish != 55 || p.SlackAtAdmit != 45 || len(p.Locations) != 2 {
		t.Fatalf("merged promise = %+v", p)
	}
	if p.Adopted {
		t.Fatal("locally admitted promise flipped to adopted")
	}
	// Adoption of an unknown job creates a fresh adopted promise and does
	// not touch the slack-at-admit histogram.
	l.Adopt("incoming", 10, 70, 90, 3, locs("l3"))
	p, ok := l.Lookup("incoming")
	if !ok || !p.Adopted || p.State != StateActive {
		t.Fatalf("adopted promise = %+v ok=%v", p, ok)
	}
	if c := l.Stats().SlackAdmit.Count; c != 1 {
		t.Fatalf("slack-at-admit count = %d after adoptions, want 1 (local reserve only)", c)
	}
}

func TestSweepViolatedVersusOrphaned(t *testing.T) {
	l := New("n1")
	l.Reserve("held", 0, 50, 60, 1, locs("l1"))
	l.Reserve("lost", 0, 50, 60, 1, locs("l2"))
	l.Reserve("open", 0, 80, 200, 1, locs("l1"))

	violated, orphaned := l.Sweep(100, func(job string) bool { return job == "held" })
	if len(violated) != 1 || violated[0] != "held" {
		t.Fatalf("violated = %v", violated)
	}
	if len(orphaned) != 1 || orphaned[0] != "lost" {
		t.Fatalf("orphaned = %v", orphaned)
	}
	st := l.Stats()
	if st.Violated != 1 || st.Orphaned != 1 || st.Active != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// kept=0 of 2 terminal outcomes.
	if st.Attainment != 0 {
		t.Fatalf("attainment = %v, want 0", st.Attainment)
	}
	// A second sweep at the same tick finds nothing new.
	if v, o := l.Sweep(100, nil); len(v) != 0 || len(o) != 0 {
		t.Fatalf("second sweep resolved %v/%v", v, o)
	}
}

func TestTransferExcludedFromAttainment(t *testing.T) {
	l := New("n1")
	l.Reserve("stay", 0, 10, 100, 1, locs("l1"))
	l.Reserve("move", 0, 10, 100, 1, locs("l1"))
	l.Transfer("move")
	l.Release("stay", 50)
	st := l.Stats()
	if st.Transferred != 1 || st.Kept != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Attainment != 1 {
		t.Fatalf("attainment = %v, want 1 (transferred is not terminal)", st.Attainment)
	}
	// Transferred outcomes don't pollute the per-location table either.
	if lo := l.Locations()["l1"]; lo.Kept != 1 || lo.Other != 0 {
		t.Fatalf("l1 outcomes = %+v", lo)
	}
}

func TestDropForgetsWithoutClassifying(t *testing.T) {
	l := New("n1")
	l.Reserve("rollback", 0, 10, 100, 1, locs("l1"))
	l.Drop("rollback")
	st := l.Stats()
	if st.Active != 0 || st.Kept+st.Violated+st.Orphaned+st.EvictedWithJob+st.Transferred != 0 {
		t.Fatalf("drop left counters %+v", st)
	}
	if _, ok := l.Lookup("rollback"); ok {
		t.Fatal("dropped promise still findable")
	}
}

func TestEvictAll(t *testing.T) {
	l := New("n1")
	l.Reserve("a", 0, 10, 100, 1, locs("l1"))
	l.Reserve("b", 0, 10, 100, 1, locs("l2"))
	if n := l.EvictAll(42); n != 2 {
		t.Fatalf("EvictAll = %d, want 2", n)
	}
	st := l.Stats()
	if st.EvictedWithJob != 2 || st.Active != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if p, _ := l.Lookup("a"); p.State != StateEvicted || p.ResolvedAt != 42 {
		t.Fatalf("evicted promise = %+v", p)
	}
}

func TestBurnRateWindow(t *testing.T) {
	l := New("n1")
	clock := time.Unix(1000, 0)
	l.nowFn = func() time.Time { return clock }
	for i := 0; i < 3; i++ {
		job := string(rune('a' + i))
		l.Reserve(job, 0, 10, 20, 1, nil)
	}
	l.Sweep(50, func(string) bool { return true }) // all three violate now
	if got := l.Stats().BurnRate; got != 3 {
		t.Fatalf("burn rate = %v, want 3", got)
	}
	clock = clock.Add(30 * time.Second)
	l.Reserve("d", 0, 10, 20, 1, nil)
	l.Sweep(60, func(string) bool { return true })
	if got := l.Stats().BurnRate; got != 4 {
		t.Fatalf("burn rate after 30s = %v, want 4", got)
	}
	// 70s later the first burst has aged out of the 60s window.
	clock = clock.Add(40 * time.Second)
	if got := l.Stats().BurnRate; got != 1 {
		t.Fatalf("burn rate after 70s = %v, want 1", got)
	}
	clock = clock.Add(2 * time.Minute)
	if got := l.Stats().BurnRate; got != 0 {
		t.Fatalf("burn rate after everything aged = %v, want 0", got)
	}
}

func TestLookupRingWrapAround(t *testing.T) {
	l := New("n1")
	for i := 0; i < recentCap+10; i++ {
		job := "j" + string(rune('0'+i%10)) + "-" + itoa(i)
		l.Reserve(job, 0, 10, 100, 1, nil)
		l.Release(job, 50)
	}
	// The newest resolved promise is findable; one evicted from the ring
	// is not.
	newest := "j" + string(rune('0'+(recentCap+9)%10)) + "-" + itoa(recentCap+9)
	if _, ok := l.Lookup(newest); !ok {
		t.Fatalf("newest resolved promise %s not found", newest)
	}
	oldest := "j0-" + itoa(0)
	if _, ok := l.Lookup(oldest); ok {
		t.Fatalf("promise %s should have been evicted from the ring", oldest)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestMergePrecedence(t *testing.T) {
	views := []Promise{
		{Job: "j", Node: "n1", State: StateTransferred},
		{Job: "j", Node: "n2", State: StateKept},
		{Job: "j", Node: "n3", State: StateOrphaned},
	}
	p, ok := Merge(views)
	if !ok || p.Node != "n2" || p.State != StateKept {
		t.Fatalf("merge = %+v ok=%v, want n2 kept", p, ok)
	}
	// A violation anywhere is the headline.
	views = append(views, Promise{Job: "j", Node: "n4", State: StateViolated})
	if p, _ = Merge(views); p.State != StateViolated {
		t.Fatalf("merge with violation = %+v", p)
	}
	if _, ok := Merge(nil); ok {
		t.Fatal("merge of no views reported found")
	}
}

func TestMergeStatsSums(t *testing.T) {
	a := Stats{Kept: 3, Violated: 1, Transferred: 2, Active: 1, BurnRate: 0.5}
	b := Stats{Kept: 5, Orphaned: 1, BurnRate: 1.5}
	got := MergeStats([]Stats{a, b})
	if got.Kept != 8 || got.Violated != 1 || got.Orphaned != 1 || got.Transferred != 2 || got.Active != 1 {
		t.Fatalf("merged = %+v", got)
	}
	if got.BurnRate != 2 {
		t.Fatalf("burn rate = %v, want 2", got.BurnRate)
	}
	// 8 kept of 10 terminal.
	if got.Attainment != 0.8 {
		t.Fatalf("attainment = %v, want 0.8", got.Attainment)
	}
}

func TestReportRecentAndAnomalies(t *testing.T) {
	l := New("n1")
	for i := 0; i < 5; i++ {
		job := "ok-" + itoa(i)
		l.Reserve(job, 0, 10, 100, 1, locs("l1"))
		l.Release(job, 50)
	}
	l.Reserve("bad", 0, 10, 20, 1, locs("l1"))
	l.Sweep(30, func(string) bool { return true })

	rep := l.Report()
	if rep.Node != "n1" {
		t.Fatalf("node = %q", rep.Node)
	}
	if len(rep.Recent) != 6 || rep.Recent[0].Job != "bad" {
		t.Fatalf("recent = %d entries, first %q", len(rep.Recent), rep.Recent[0].Job)
	}
	if len(rep.Anomalies) != 1 || rep.Anomalies[0].State != StateViolated {
		t.Fatalf("anomalies = %+v", rep.Anomalies)
	}
	lo := rep.Locations["l1"]
	if lo.Kept != 5 || lo.Violated != 1 {
		t.Fatalf("l1 outcomes = %+v", lo)
	}
	if want := 5.0 / 6.0; lo.Attainment != want {
		t.Fatalf("l1 attainment = %v, want %v", lo.Attainment, want)
	}
}

func TestNilLedgerIsSafe(t *testing.T) {
	var l *Ledger
	l.Reserve("j", 0, 1, 2, 1, nil)
	l.Adopt("j", 0, 1, 2, 1, nil)
	if got := l.Release("j", 1); got != "" {
		t.Fatalf("nil release = %q", got)
	}
	l.Complete("j", 1)
	l.Transfer("j")
	l.Drop("j")
	l.Sweep(1, nil)
	l.EvictAll(1)
	if st := l.Stats(); st.Active != 0 {
		t.Fatalf("nil stats = %+v", st)
	}
	if _, ok := l.Lookup("j"); ok {
		t.Fatal("nil lookup found something")
	}
	if rep := l.Report(); rep.Node != "" {
		t.Fatalf("nil report = %+v", rep)
	}
	if l.Locations() != nil {
		t.Fatal("nil locations non-nil")
	}
}
