package query

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/interval"
	"repro/internal/resource"
)

// toggleEval is a synthetic evaluator whose verdict is an atomic bool:
// tests flip it and bump the manager to provoke verdict flips without a
// ledger.
type toggleEval struct {
	holds atomic.Bool
	epoch atomic.Uint64
}

func (e *toggleEval) eval(c *Compiled) (Verdict, error) {
	return Verdict{Holds: e.holds.Load(), Epoch: e.epoch.Load(), Now: 0}, nil
}

func (e *toggleEval) set(holds bool) uint64 {
	e.holds.Store(holds)
	return e.epoch.Add(1)
}

func waitEvent(t *testing.T, sub *Subscription) Event {
	t.Helper()
	select {
	case ev, ok := <-sub.Events():
		if !ok {
			t.Fatal("event channel closed while waiting for an event")
		}
		return ev
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for an event")
	}
	panic("unreachable")
}

func TestSubscribeInitialVerdictAndFlip(t *testing.T) {
	eval := &toggleEval{}
	eval.set(true)
	m := NewManager(eval.eval, nil)
	defer m.Close()

	c := mustParse(t, "holds(l1, cpu>=1)")
	sub, err := m.Subscribe(c, 16)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	first := waitEvent(t, sub)
	if !first.Holds || first.Prev != nil || first.Seq != 1 {
		t.Fatalf("initial event = %+v, want holds=true prev=nil seq=1", first)
	}
	// Subscribe's self-wake sweeps the new subscription once more. Let
	// that evaluation finish first: run after the flip below, it would
	// deliver the flip before Bump records its reason.
	for deadline := time.Now().Add(5 * time.Second); m.Stats().Evals < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the self-wake sweep never re-evaluated the subscription")
		}
	}

	epoch := eval.set(false)
	m.Bump(epoch, "release")
	flip := waitEvent(t, sub)
	if flip.Holds || flip.Prev == nil || !*flip.Prev {
		t.Fatalf("flip event = %+v, want holds=false prev=true", flip)
	}
	if flip.Reason != "release" {
		t.Fatalf("flip reason = %q, want release", flip.Reason)
	}

	// Same verdict again: no event.
	m.Bump(eval.epoch.Add(1), "advance")
	select {
	case ev := <-sub.Events():
		t.Fatalf("unexpected event without a flip: %+v", ev)
	case <-time.After(50 * time.Millisecond):
	}

	st := m.Stats()
	if st.Active != 1 || st.Flips != 1 || st.Delivered != 2 {
		t.Fatalf("stats = %+v, want active=1 flips=1 delivered=2", st)
	}
	sub.Close()
	if _, ok := <-sub.Events(); ok {
		t.Fatal("events channel still open after Close")
	}
	if m.Stats().Active != 0 {
		t.Fatal("subscription still active after Close")
	}
}

// A flip must be labelled with the bump that was current when its
// evaluation finished, not when its sweep started: the self-wake after
// Subscribe starts a sweep on no bump at all, and an evaluation that
// takes a while (a cluster fan-out) can observe a later mutation.
func TestFlipReasonSampledAfterEvaluation(t *testing.T) {
	var holds atomic.Bool
	inEval := make(chan struct{}, 4)
	release := make(chan struct{})
	var gated atomic.Bool
	m := NewManager(func(c *Compiled) (Verdict, error) {
		if gated.Load() {
			inEval <- struct{}{}
			<-release
		}
		return Verdict{Holds: holds.Load()}, nil
	}, nil)
	defer m.Close()
	m.Bump(1, "advance") // an old bump, long since swept

	gated.Store(true)
	subscribed := make(chan *Subscription, 1)
	go func() {
		sub, err := m.Subscribe(mustParse(t, "holds(l1, cpu>=1)"), 16)
		if err != nil {
			t.Error(err)
		}
		subscribed <- sub
	}()
	<-inEval // the initial evaluation
	release <- struct{}{}
	sub := <-subscribed
	if first := waitEvent(t, sub); first.Holds {
		t.Fatalf("initial event = %+v, want holds=false", first)
	}

	<-inEval // the self-wake's sweep is now mid-evaluation
	holds.Store(true)
	m.Bump(2, "commit")
	gated.Store(false)
	close(release)
	if flip := waitEvent(t, sub); !flip.Holds || flip.Reason != "commit" {
		t.Fatalf("flip = %+v, want holds=true reason=commit", flip)
	}
}

func TestBoundedQueueDrops(t *testing.T) {
	eval := &toggleEval{}
	m := NewManager(eval.eval, nil)
	defer m.Close()

	sub, err := m.Subscribe(mustParse(t, "true"), 1)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	// The initial event fills the queue of one; flips must drop, not
	// block the sweep loop.
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; m.Stats().Drops == 0; i++ {
		m.Bump(eval.set(i%2 == 0), "reserve")
		if time.Now().After(deadline) {
			t.Fatal("no drop recorded despite a full queue")
		}
		time.Sleep(time.Millisecond)
	}
	_ = sub
}

// TestConcurrentSubscribeUnsubscribeBump is the -race exercise: many
// goroutines subscribe, close, and bump epochs while the sweep loop
// re-evaluates, and a watched subscription must still observe a clean
// verdict flip.
func TestConcurrentSubscribeUnsubscribeBump(t *testing.T) {
	eval := &toggleEval{}
	eval.set(true)
	m := NewManager(eval.eval, nil)
	defer m.Close()

	c := mustParse(t, "holds(l1, cpu>=1, always, next 10)")
	watched, err := m.Subscribe(c, 64)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	if ev := waitEvent(t, watched); !ev.Holds {
		t.Fatalf("initial verdict = %v, want true", ev.Holds)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sub, err := m.Subscribe(c, 4)
				if err != nil {
					return // manager closed under us
				}
				m.Bump(eval.epoch.Add(1), "reserve")
				sub.Close()
			}
		}()
	}

	// Flip the verdict mid-churn; the watched subscription must see it.
	time.Sleep(10 * time.Millisecond)
	m.Bump(eval.set(false), "release")
	var flipped bool
	deadline := time.After(5 * time.Second)
	for !flipped {
		select {
		case ev, ok := <-watched.Events():
			if !ok {
				t.Fatal("watched channel closed before the flip")
			}
			if !ev.Holds {
				flipped = true
			}
		case <-deadline:
			t.Fatal("verdict flip never delivered under churn")
		}
	}
	close(stop)
	wg.Wait()
}

// manualManager returns a manager whose sweep loop has already exited,
// so the test runs every sweep itself, synchronously. Close must not be
// called on it.
func manualManager(eval Evaluator) *Manager {
	m := NewManager(eval, nil)
	close(m.done)
	<-m.loopExited
	return m
}

// scopedEval answers every query from a fixed table of read sets and
// counts evaluations per query. A query missing from reads evaluates
// unscoped, the way a cluster fan-out does.
type scopedEval struct {
	holds map[string]bool
	reads map[string][]resource.Location
	fail  map[string]bool
	count map[string]int
}

func newScopedEval() *scopedEval {
	return &scopedEval{holds: map[string]bool{}, reads: map[string][]resource.Location{},
		fail: map[string]bool{}, count: map[string]int{}}
}

func (e *scopedEval) eval(c *Compiled) (Verdict, error) {
	e.count[c.Source()]++
	if e.fail[c.Source()] {
		return Verdict{}, errors.New("evaluation failed")
	}
	reads, scoped := e.reads[c.Source()]
	return Verdict{Holds: e.holds[c.Source()], Footprint: reads, Scoped: scoped}, nil
}

// sweepExpecting runs one sweep of m and fails unless it re-evaluated
// exactly the queries want, as count, the evaluations per query, shows.
func sweepExpecting(t *testing.T, m *Manager, count map[string]int, want ...string) {
	t.Helper()
	before := maps.Clone(count)
	m.sweep()
	var got []string
	for q, n := range count {
		if n != before[q] {
			got = append(got, q)
		}
	}
	sort.Strings(got)
	sort.Strings(want)
	if !slices.Equal(got, want) {
		t.Fatalf("sweep re-evaluated %q, want %q", got, want)
	}
}

// TestWakeOnlyTouched: a sweep re-evaluates the subscriptions that are
// stale or unscoped, or whose last read set or names the writes since
// the last sweep touched — and every subscription after a bump with no
// footprint. Every evaluation is a subscribe's or a woken one's.
func TestWakeOnlyTouched(t *testing.T) {
	e := newScopedEval()
	h1, h2 := "holds(l1, cpu>=1)", "holds(l2, cpu>=1)"
	fj, tr, fan := "feasible(j1)", "true", "holds(l3, cpu>=1)"
	e.reads[h1] = []resource.Location{"l1"}
	e.reads[h2] = []resource.Location{"l2"}
	e.reads[fj] = []resource.Location{} // j1 is absent: reads no location
	e.reads[tr] = nil                   // scoped, reads nothing
	m := manualManager(e.eval)
	for _, q := range []string{h1, h2, fj, tr, fan} {
		if _, err := m.Subscribe(mustParse(t, q), 16); err != nil {
			t.Fatal(err)
		}
	}
	sweep := func(want ...string) {
		t.Helper()
		sweepExpecting(t, m, e.count, want...)
	}
	all := []string{h1, h2, fj, tr, fan}
	sweep(all...) // every new subscription is stale
	sweep(fan)    // nothing touched: only the unscoped one
	m.BumpAt(1, "reserve", []resource.Location{"l1"}, "j9", nil, nil)
	sweep(h1, fan)
	m.BumpAt(2, "reserve", []resource.Location{"l4"}, "j1", nil, nil)
	sweep(fj, fan)
	m.BumpAt(3, "acquire", []resource.Location{"l2"}, "", nil, nil)
	m.BumpAt(4, "release", []resource.Location{"l1"}, "j7", nil, nil)
	sweep(h1, h2, fan)
	m.BumpAt(5, "advance", nil, "", nil, nil)
	sweep(all...)
	m.Bump(6, "gossip")
	sweep(all...)

	st := m.Stats()
	if st.Evals != uint64(len(all))+st.SweepWoken {
		t.Fatalf("evals = %d, want %d subscribes + %d woken", st.Evals, len(all), st.SweepWoken)
	}
	if st.SweepWoken != 5+1+2+2+3+5+5 || st.SweepSkipped != 7*5-st.SweepWoken {
		t.Fatalf("woken = %d, skipped = %d, want 23 and 12", st.SweepWoken, st.SweepSkipped)
	}
}

// TestWakeTypedReads: a typed verdict wakes only for a write to a
// located type it read, in a window overlapping the one it read, or for
// a name it references; an untyped one for any write to its footprint.
// Coalesced writes keep one hull per type, so two writes on either side
// of a read wake it.
func TestWakeTypedReads(t *testing.T) {
	cpu1, cpu2, mem1 := resource.At("cpu", "l1"), resource.At("cpu", "l2"), resource.At("mem", "l1")
	box, fj, open := "holds(l1, cpu>=1, always, next 100)", "feasible(j1)", "holds(l1, cpu>=1, always)"
	verdicts := map[string]Verdict{
		box: {Reads: []Read{{Type: cpu1, Window: interval.New(99, 100)}}, Typed: true,
			Footprint: []resource.Location{"l1"}, Scoped: true},
		fj: {Reads: []Read{{Type: cpu2, Window: interval.New(0, 50)}}, Typed: true,
			Footprint: []resource.Location{"l2"}, Scoped: true},
		open: {Footprint: []resource.Location{"l1"}, Scoped: true},
	}
	count := map[string]int{}
	m := manualManager(func(c *Compiled) (Verdict, error) {
		count[c.Source()]++
		return verdicts[c.Source()], nil
	})
	for _, q := range []string{box, fj, open} {
		if _, err := m.Subscribe(mustParse(t, q), 16); err != nil {
			t.Fatal(err)
		}
	}
	sweepExpecting(t, m, count, box, fj, open) // every new subscription is stale
	wrote := func(lt resource.LocatedType, from, to interval.Time) []resource.Set {
		return []resource.Set{resource.NewSet(resource.NewTerm(resource.FromUnits(1), lt, interval.New(from, to)))}
	}
	l1, l2 := []resource.Location{"l1"}, []resource.Location{"l2"}
	// Each write passes its sets as taken and given, the way a write of
	// either direction does: this test is about what a write reaches,
	// and the zero slacks above leave no margin to cross.
	bump := func(epoch uint64, reason string, locs []resource.Location, name string, sets []resource.Set) {
		m.BumpAt(epoch, reason, locs, name, sets, sets)
	}
	bump(1, "reserve", l1, "j9", wrote(cpu1, 0, 10))
	sweepExpecting(t, m, count, open)
	bump(2, "reserve", l1, "", wrote(cpu1, 90, 100))
	sweepExpecting(t, m, count, box, open)
	bump(3, "acquire", l1, "", wrote(mem1, 0, 200))
	sweepExpecting(t, m, count, open)
	bump(4, "release", l2, "", wrote(cpu2, 50, 70))
	sweepExpecting(t, m, count)
	bump(5, "release", l2, "", wrote(cpu2, 40, 70))
	sweepExpecting(t, m, count, fj)
	m.BumpAt(6, "commit", []resource.Location{"l3"}, "j1", nil, nil)
	sweepExpecting(t, m, count, fj)
	bump(7, "reserve", l1, "", wrote(cpu1, 0, 10))
	bump(8, "reserve", l1, "", wrote(cpu1, 200, 300))
	sweepExpecting(t, m, count, box, open)
}

// TestWakeRetriesFailedEvaluation: a subscription whose re-evaluation
// errored keeps its verdict and stays stale, so the next sweep retries
// it even when nothing it reads was touched.
func TestWakeRetriesFailedEvaluation(t *testing.T) {
	e := newScopedEval()
	q := "holds(l1, cpu>=1)"
	e.reads[q] = []resource.Location{"l1"}
	m := manualManager(e.eval)
	sub, err := m.Subscribe(mustParse(t, q), 16)
	if err != nil {
		t.Fatal(err)
	}
	waitEvent(t, sub)
	m.sweep() // clears the subscribe's stale mark
	e.fail[q] = true
	m.BumpAt(1, "reserve", []resource.Location{"l1"}, "", nil, nil)
	m.sweep()
	e.fail[q], e.holds[q] = false, true
	m.sweep() // nothing touched: the retry is what wakes it
	if e.count[q] != 4 {
		t.Fatalf("%d evaluations, want subscribe + 3 sweeps", e.count[q])
	}
	if ev := waitEvent(t, sub); !ev.Holds {
		t.Fatalf("flip = %+v, want holds=true", ev)
	}
}

// TestWakeSubscribeRacingBump: a bump that lands between Subscribe's
// first evaluation and its registration is swept before the
// subscription exists — with no other subscription it is not even
// recorded. The new subscription is stale, so its first sweep catches
// the flip anyway.
func TestWakeSubscribeRacingBump(t *testing.T) {
	e := newScopedEval()
	q := "holds(l1, cpu>=1)"
	e.reads[q] = []resource.Location{"l1"}
	var m *Manager
	m = manualManager(func(c *Compiled) (Verdict, error) {
		v, err := e.eval(c)
		if e.count[q] == 1 { // the write lands after the initial read
			e.holds[q] = true
			m.BumpAt(1, "reserve", []resource.Location{"l1"}, "j1", nil, nil)
		}
		return v, err
	})
	sub, err := m.Subscribe(mustParse(t, q), 16)
	if err != nil {
		t.Fatal(err)
	}
	if ev := waitEvent(t, sub); ev.Holds {
		t.Fatalf("initial event = %+v, want holds=false", ev)
	}
	m.sweep()
	if ev := waitEvent(t, sub); !ev.Holds || ev.Reason != "reserve" {
		t.Fatalf("flip = %+v, want holds=true reason=reserve", ev)
	}
}

// TestBumpAtWithoutSubscriptionsAllocatesNothing: the daemon bumps on
// every write, subscribed or not; with no subscriptions a bump records
// nothing and wakes no sweep.
func TestBumpAtWithoutSubscriptionsAllocatesNothing(t *testing.T) {
	m := NewManager(newScopedEval().eval, nil)
	defer m.Close()
	locs := []resource.Location{"l1", "l2"}
	if n := testing.AllocsPerRun(100, func() { m.BumpAt(1, "reserve", locs, "j1", nil, nil) }); n != 0 {
		t.Fatalf("BumpAt allocates %.0f times per call with no subscriptions", n)
	}
	if st := m.Stats(); st.SweepWoken+st.SweepSkipped != 0 {
		t.Fatalf("stats = %+v: a bump with no subscriptions swept", st)
	}
}

// TestWakeMarginBoundary pins the margin at its edges. One standing
// query reads cpu@l1 within [0, 10), where the view holds 20 units a
// tick, 200 000 in all; each case sets the need, then makes writes of
// exact quantities at tick 5, one sweep each. After every sweep the
// delivered verdict must equal a full evaluation, and the sweep must
// have evaluated the query exactly when the case says it wakes:
//   - a take of exactly the slack cannot fail the read, so it is skipped;
//   - one quantity step more can, so it wakes, and flips the verdict;
//   - a give never fails a met read, however large;
//   - a give of exactly the deficit can meet the read, so it wakes;
//   - a skipped write is debited, so a second write that crosses what
//     is left of the margin wakes, for a slack and for a deficit alike.
func TestWakeMarginBoundary(t *testing.T) {
	cpu := resource.At("cpu", "l1")
	view := resource.NewSet(resource.NewTerm(resource.FromUnits(20), cpu, interval.New(0, 10)))
	at5 := func(q resource.Quantity) resource.Set {
		return resource.NewSet(resource.NewTerm(resource.Rate(q), cpu, interval.New(5, 6)))
	}
	type write struct {
		q    resource.Quantity // taken when positive, given when negative
		wake bool
	}
	cases := []struct {
		name   string
		need   int // units within the window: 190 leaves a slack of 10 000, 210 a deficit of 10 000
		writes []write
	}{
		{"take of the slack", 190, []write{{10_000, false}}},
		{"take one step past the slack", 190, []write{{10_001, true}}},
		{"give to a met read", 190, []write{{-1_000_000, false}}},
		{"give of the deficit", 210, []write{{-10_000, true}}},
		{"give one step short of the deficit", 210, []write{{-9_999, false}}},
		{"second take past a debited slack", 190, []write{{6_000, false}, {4_000, false}, {1, true}}},
		{"second give of a debited deficit", 210, []write{{-9_999, false}, {-1, true}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := mustParse(t, fmt.Sprintf("holds(l1, cpu>=%d, from 0 to 10)", tc.need))
			free := view
			full := func() Verdict {
				res, err := c.Evaluate(Snapshot{Free: free})
				if err != nil {
					t.Fatal(err)
				}
				return Verdict{Holds: res.Holds, Reads: res.Reads, Typed: res.Typed,
					Footprint: []resource.Location{"l1"}, Scoped: true}
			}
			m := manualManager(func(*Compiled) (Verdict, error) { return full(), nil })
			sub, err := m.Subscribe(c, 16)
			if err != nil {
				t.Fatal(err)
			}
			delivered := waitEvent(t, sub).Holds
			m.sweep() // clears the subscribe's stale mark
			for i, w := range tc.writes {
				before := m.Stats()
				if w.q > 0 {
					free = free.SubtractSaturating(at5(w.q))
					m.BumpAt(uint64(i+1), "reserve", []resource.Location{"l1"}, "", []resource.Set{at5(w.q)}, nil)
				} else {
					free = free.Union(at5(-w.q))
					m.BumpAt(uint64(i+1), "release", []resource.Location{"l1"}, "", nil, []resource.Set{at5(-w.q)})
				}
				m.sweep()
				after := m.Stats()
				evals, skipped := after.Evals-before.Evals, after.SweepSkipped-before.SweepSkipped
				if evals+skipped != 1 || (evals == 1) != w.wake {
					t.Fatalf("write %d of %d: %d evaluations, %d skipped; want woken=%v", i, w.q, evals, skipped, w.wake)
				}
				select {
				case ev := <-sub.Events():
					delivered = ev.Holds
				default:
				}
				if want := full().Holds; delivered != want {
					t.Fatalf("write %d of %d: delivered verdict %v, a full evaluation says %v", i, w.q, delivered, want)
				}
			}
			if st := m.Stats(); st.Evals != 1+st.SweepWoken {
				t.Fatalf("evals = %d, want 1 subscribe + %d woken", st.Evals, st.SweepWoken)
			}
			if last := tc.writes[len(tc.writes)-1]; last.wake && m.Stats().Flips != 1 {
				t.Fatalf("the waking write flipped %d verdicts, want 1", m.Stats().Flips)
			}
		})
	}
}
