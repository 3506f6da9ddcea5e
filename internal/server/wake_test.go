package server

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/interval"
	"repro/internal/query"
	"repro/internal/resource"
)

// wakeLocs are the four locations of the wake property's server.
var wakeLocs = []resource.Location{"l1", "l2", "l3", "l4"}

// wakeQueries are the standing queries the wake property watches: holds
// atoms in each mode with thresholds a few admissions cross (a job here
// takes a location's whole rate of 4 for 2 ticks), feasibility and
// Allen atoms over names that come and go, and/or/not combinations, and
// a ghost name nothing ever admits.
var wakeQueries = []string{
	"holds(l1, cpu>=4, always, next 6)",
	"holds(l2, cpu>=34, eventually, next 10)",
	"holds(l3, cpu>=30, from 0 to 10)",
	"not holds(l4, cpu>=16, next 8)",
	"feasible(j0)",
	"feasible(j1, before 20)",
	"during(j2, window(0, 30))",
	"overlaps(j0, j1)",
	"holds(l1, cpu>=2, always, next 30) and feasible(j3)",
	"feasible(ghost) or holds(l2, cpu>=40, next 12)",
}

// wakeWatch is one standing query under test and the verdict its
// events last delivered.
type wakeWatch struct {
	c    *query.Compiled
	sub  *query.Subscription
	last bool
}

// wakeRun drives a real Server through the op sequence data encodes and
// holds the wake property after every op: each subscription's delivered
// verdict converges on a full re-evaluation of its query. A write the
// sweep failed to wake a flipped subscription for leaves that
// subscription's verdict stale for good — nothing else writes until the
// next op — so the check names the op and the query. It returns the
// flips the standing queries saw.
type wakeRun struct {
	t       *testing.T
	srv     *Server
	data    []byte
	now     interval.Time
	watches []*wakeWatch
	subs    int // Subscribe calls, each one evaluation
	log     []string
	// racing, when set, is a write the snapshot hook runs right after
	// the initial read of the query it names: a bump landing between a
	// subscription's first evaluation and its registration.
	racing atomic.Pointer[racingWrite]
}

type racingWrite struct {
	c     *query.Compiled
	write func()
}

func newWakeRun(t *testing.T, data []byte) *wakeRun {
	srv, err := New(Config{Theta: cpuTheta(4, 1000, wakeLocs...)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Shutdown(context.Background()) })
	r := &wakeRun{t: t, srv: srv, data: data}
	srv.SetQuerySnapshot(func(ctx context.Context, c *query.Compiled) (query.Snapshot, error) {
		snap, err := srv.ledgerSnapshot(ctx, c)
		if w := r.racing.Load(); w != nil && w.c == c && r.racing.CompareAndSwap(w, nil) {
			w.write()
		}
		return snap, err
	})
	return r
}

// next consumes one byte of the op stream (zero once it runs out).
func (r *wakeRun) next() int {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return int(b)
}

// write decodes one ledger write: admit (twice as likely as the rest),
// release, acquire, prepare, commit, abort or advance. It is returned
// unrun so a racing subscribe can run it inside its initial evaluation.
func (r *wakeRun) write() (string, func()) {
	l := r.srv.Ledger()
	op, a, b := r.next()%8, r.next(), r.next()
	name := fmt.Sprintf("j%d", a%5)
	loc := wakeLocs[b%len(wakeLocs)]
	start := r.now + interval.Time(a%8)
	key := fmt.Sprintf("k%d", b%3)
	switch op {
	case 0, 1:
		locs := []resource.Location{loc}
		if other := wakeLocs[(b/4)%len(wakeLocs)]; other > loc {
			locs = append(locs, other)
		}
		job := triJob(r.t, name, locs, start, start+interval.Time(10+b%40))
		return fmt.Sprintf("admit %s at %v from %d", name, locs, start), func() {
			_, _ = l.Admit(r.srv.cfg.Policy, job) // a refusal or a duplicate writes nothing
		}
	case 2:
		return "release " + name, func() { _ = l.Release(name) }
	case 3:
		theta := resource.NewSet(resource.NewTerm(u(int64(1+a%3)), resource.CPUAt(loc),
			interval.New(r.now, r.now+interval.Time(5+b%20))))
		return fmt.Sprintf("acquire %v", theta), func() { _ = l.Acquire(theta) }
	case 4:
		end := start + interval.Time(2+b%10)
		demand := resource.NewSet(resource.NewTerm(u(int64(1+b%4)), resource.CPUAt(loc), interval.New(start, end)))
		expiry := r.now + interval.Time(3+a%20)
		return fmt.Sprintf("prepare %s for %s: %v until %d", key, name, demand, expiry), func() {
			_ = l.Prepare(key, name, demand, end, end+10, expiry)
		}
	case 5:
		return "commit " + key, func() { _ = l.Commit(key) }
	case 6:
		return "abort " + key, func() { _ = l.Abort(key) }
	default:
		to := r.now + interval.Time(1+a%4)
		r.now = to
		return fmt.Sprintf("advance to %d", to), func() {
			if _, err := l.Advance(to); err != nil {
				r.t.Error(err)
			}
		}
	}
}

// subscribe registers src; a non-nil write runs between the initial
// evaluation and the registration.
func (r *wakeRun) subscribe(src string, what string, write func()) {
	c, err := query.ParseText(src)
	if err != nil {
		r.t.Fatal(err)
	}
	if write != nil {
		r.racing.Store(&racingWrite{c: c, write: write})
		r.log = append(r.log, fmt.Sprintf("subscribe %s racing %s", src, what))
	} else {
		r.log = append(r.log, "subscribe "+src)
	}
	sub, err := r.srv.Queries().Subscribe(c, 256)
	if err != nil {
		r.t.Fatal(err)
	}
	r.subs++
	first := <-sub.Events() // the initial event is queued by Subscribe itself
	r.watches = append(r.watches, &wakeWatch{c: c, sub: sub, last: first.Holds})
}

// settle waits for every subscription's delivered verdict to agree with
// a full re-evaluation of its query.
func (r *wakeRun) settle() {
	r.t.Helper()
	for _, w := range r.watches {
		snap, err := r.srv.ledgerSnapshot(context.Background(), w.c)
		if err != nil {
			r.t.Fatal(err)
		}
		v, err := w.c.Evaluate(snap)
		if err != nil {
			r.t.Fatal(err)
		}
		deadline := time.After(5 * time.Second)
		for done := false; !done; {
			select {
			case ev := <-w.sub.Events():
				if ev.Dropped > 0 {
					r.t.Fatalf("%s dropped %d events", w.c.Source(), ev.Dropped)
				}
				w.last = ev.Holds
				r.log = append(r.log, fmt.Sprintf("  flip: %s holds=%v", w.c.Source(), ev.Holds))
				continue
			default:
			}
			if w.last == v.Holds {
				break
			}
			select {
			case ev := <-w.sub.Events():
				w.last = ev.Holds
				r.log = append(r.log, fmt.Sprintf("  flip: %s holds=%v", w.c.Source(), ev.Holds))
			case <-deadline:
				r.t.Fatalf("%s: delivered verdict %v, a full evaluation says %v, after:\n  %s",
					w.c.Source(), w.last, v.Holds, strings.Join(r.log, "\n  "))
			}
			done = w.last == v.Holds
		}
	}
}

// run executes the whole op stream, settling after each op, and returns
// the flips delivered.
func (r *wakeRun) run() uint64 {
	m := r.srv.Queries()
	// The first subscription races a write with no other subscription
	// live: that bump reaches a manager with nothing to record.
	what, write := "admit j0 at [l1] from 0", func() {
		_, _ = r.srv.Ledger().Admit(r.srv.cfg.Policy, triJob(r.t, "j0", []resource.Location{"l1"}, 0, 30))
	}
	r.subscribe(wakeQueries[4], what, write)
	r.settle()
	for i, src := range wakeQueries {
		if i != 4 {
			r.subscribe(src, "", nil)
		}
	}
	r.settle()
	for ops := 0; len(r.data) > 0 && ops < 64; ops++ {
		switch op := r.next() % 10; {
		case op < 8:
			what, write := r.write()
			r.log = append(r.log, what)
			write()
		case op == 8 && len(r.watches) > 0:
			i := r.next() % len(r.watches)
			r.log = append(r.log, "close "+r.watches[i].c.Source())
			r.watches[i].sub.Close()
			r.watches = append(r.watches[:i], r.watches[i+1:]...)
		default:
			src := wakeQueries[r.next()%len(wakeQueries)]
			what, write := r.write()
			r.subscribe(src, what, write)
		}
		r.settle()
	}
	// At quiescence the delivered verdicts are a full sweep's.
	m.Bump(r.srv.Ledger().Epoch(), "check")
	r.settle()
	// Every evaluation is a subscribe's or a woken subscription's.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := m.Stats()
		if st.Evals == uint64(r.subs)+st.SweepWoken {
			return st.Flips
		}
		if time.Now().After(deadline) {
			r.t.Fatalf("evals = %d, want %d subscribes + %d woken", st.Evals, r.subs, st.SweepWoken)
		}
		time.Sleep(time.Millisecond)
	}
}

// FuzzWakeCoversFlips: after every admit, release, acquire, prepare,
// commit, abort, advance, subscribe (some racing a write) and
// unsubscribe, every standing query whose full re-evaluation differs
// from its delivered verdict was woken by the sweep — its verdict
// converges — and at quiescence the delivered verdicts equal a full
// sweep's. The seed corpus is seeded random op streams.
func FuzzWakeCoversFlips(f *testing.F) {
	for _, seed := range wakeSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		newWakeRun(t, data).run()
	})
}

// wakeSeeds are eight op streams of 96 seeded random bytes.
func wakeSeeds() [][]byte {
	seeds := make([][]byte, 8)
	for i := range seeds {
		seeds[i] = make([]byte, 96)
		rand.New(rand.NewSource(int64(i + 1))).Read(seeds[i])
	}
	return seeds
}

// TestWakeCoversFlipsExercisesFlips: the property is vacuous unless the
// op streams flip verdicts; the seed corpus must flip every standing
// query.
func TestWakeCoversFlipsExercisesFlips(t *testing.T) {
	flipped := map[string]int{}
	for _, seed := range wakeSeeds() {
		r := newWakeRun(t, seed)
		r.run()
		for _, line := range r.log {
			if q, ok := strings.CutPrefix(line, "  flip: "); ok {
				flipped[q[:strings.LastIndex(q, " holds=")]]++
			}
		}
	}
	t.Logf("flips by query: %v", flipped)
	if len(flipped) < len(wakeQueries) {
		t.Fatalf("the seed corpus flipped %d of the %d standing queries: %v", len(flipped), len(wakeQueries), flipped)
	}
}

// TestStandingQuerySkipsWritesOutsideItsReads: a standing □ over the
// next 100 ticks reads cpu@l1 at tick 99 alone, so a sweep skips it for
// a reservation that ends before then and for a write to another type
// at its location, and wakes it for a reservation that reaches tick 99.
// A feasible watch still wakes when its job is released.
func TestStandingQuerySkipsWritesOutsideItsReads(t *testing.T) {
	srv, err := New(Config{Theta: cpuTheta(4, 1000, "l1", "l2")})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Shutdown(context.Background()) })
	l, m := srv.Ledger(), srv.Queries()
	if dec, err := l.Admit(srv.cfg.Policy, cpuJob(t, "j", "l2", 0, 50)); err != nil || !dec.Admit {
		t.Fatalf("admit j: admit=%v err=%v", dec.Admit, err)
	}
	// Each subscription's own sweep ends before the next write, so every
	// write below is swept alone.
	waitStats := func(done func(query.ManagerStats) bool) query.ManagerStats {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			if st := m.Stats(); done(st) {
				return st
			}
			if time.Now().After(deadline) {
				t.Fatalf("stats never settled: %+v", m.Stats())
			}
		}
	}
	for i, src := range []string{"holds(l1, cpu>=1, always, next 100)", "feasible(j)"} {
		c, err := query.ParseText(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Subscribe(c, 16); err != nil {
			t.Fatal(err)
		}
		waitStats(func(st query.ManagerStats) bool { return st.Evals == uint64(2*(i+1)) })
	}
	steps := []struct {
		what          string
		write         func() error
		woken, evals  uint64
		skippedAlways bool
	}{
		{"a reservation on cpu@l1 within [0,10)", func() error {
			_, err := l.Admit(srv.cfg.Policy, cpuJob(t, "r0", "l1", 0, 10))
			return err
		}, 0, 0, true},
		{"a reservation on cpu@l1 reaching tick 99", func() error {
			demand := resource.NewSet(resource.NewTerm(u(1), resource.CPUAt("l1"), interval.New(95, 100)))
			return l.Prepare("k1", "r1", demand, 100, 110, 500)
		}, 1, 1, false},
		{"an acquire of a link at l1", func() error {
			return l.Acquire(resource.NewSet(resource.NewTerm(u(2), resource.Link("l1", "l2"), interval.New(0, 200))))
		}, 0, 0, true},
		{"the release of j", func() error { return l.Release("j") }, 1, 1, false},
	}
	for _, step := range steps {
		before := m.Stats()
		if err := step.write(); err != nil {
			t.Fatalf("%s: %v", step.what, err)
		}
		after := waitStats(func(st query.ManagerStats) bool {
			return st.SweepWoken+st.SweepSkipped == before.SweepWoken+before.SweepSkipped+2
		})
		after = waitStats(func(st query.ManagerStats) bool { return st.Evals >= before.Evals+step.evals })
		if woken := after.SweepWoken - before.SweepWoken; woken != step.woken {
			t.Errorf("%s woke %d standing queries, want %d", step.what, woken, step.woken)
		}
		if evals := after.Evals - before.Evals; evals != step.evals {
			t.Errorf("%s ran %d evaluations, want %d", step.what, evals, step.evals)
		}
		if step.skippedAlways && after.SweepSkipped-before.SweepSkipped != 2 {
			t.Errorf("%s skipped %d standing queries, want both", step.what, after.SweepSkipped-before.SweepSkipped)
		}
	}
}
