package query

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
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
