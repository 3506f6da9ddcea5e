package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/compute"
	"repro/internal/interval"
	"repro/internal/resource"
)

// The maintained free view: the transition rules patch a state's Θ_free
// instead of recomputing it. These tests hold FreeResources to the
// from-scratch reference, Θ ∖ Σρ, after every rule and every hand edit.

// checkFreeView fails unless s.FreeResources agrees with the recompute
// in value and in whether it errors.
func checkFreeView(t testing.TB, step string, s State) {
	t.Helper()
	got, gotErr := s.FreeResources()
	want, wantErr := s.Theta.Subtract(s.CommittedDemand())
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: FreeResources err = %v, recompute err = %v (state %s)", step, gotErr, wantErr, s)
	}
	if gotErr == nil && !got.Equal(want) {
		t.Fatalf("%s: FreeResources = %s, recompute = %s (state %s)", step, got, want, s)
	}
}

// freeViewWalk counts what a walk exercised, so a test can tell a walk
// that reached the maintained view from one that never left the
// recompute.
type freeViewWalk struct {
	steps, hits, admitted, rejected int
}

// walkFreeView applies a draw-driven sequence of transition rules and
// hand edits to a random initial state, checking the free view after
// every one. draw(n) returns a choice in [0, n).
func walkFreeView(t testing.TB, draw func(int) int) freeViewWalk {
	t.Helper()
	var w freeViewWalk
	randomTerm := func(from interval.Time) resource.Term {
		start := from + interval.Time(draw(10))
		return resource.NewTerm(u(1+int64(draw(4))), quantityTypes[draw(len(quantityTypes))],
			interval.New(start, start+1+interval.Time(draw(30))))
	}
	var theta resource.Set
	for k := 1 + draw(5); k > 0; k-- {
		theta.Add(randomTerm(0))
	}
	s := NewState(theta, 0)
	var viols []Violation
	jobs := 0
	newJob := func() compute.Distributed {
		jobs++
		name := fmt.Sprintf("j%d", jobs)
		start := s.Now + interval.Time(draw(6))
		deadline := start + 1 + interval.Time(draw(30))
		if draw(2) == 0 {
			return seqJob(t, name, compute.ActorName(name+".a"), start, deadline)
		}
		return evalJob(t, name, compute.ActorName(name+".a"), start, deadline)
	}
	pick := func() (Commitment, int, bool) {
		if len(s.Commitments) == 0 {
			return Commitment{}, 0, false
		}
		i := draw(len(s.Commitments))
		return s.Commitments[i], i, true
	}
	for n := 4 + draw(40); n > 0; n-- {
		var step string
		switch op := draw(10); op {
		case 0:
			step = "acquire"
			s, _ = Acquire(s, resource.NewSet(randomTerm(s.Now)))
		case 1, 2:
			step = "accommodate"
			job := newJob()
			plan, err := AccommodateAdditional(s, job)
			if err != nil {
				w.rejected++
				break
			}
			next, _, err := Accommodate(s, ConcurrentAt(job, s.Now), plan)
			if err != nil {
				t.Fatalf("accommodate of a Theorem-4 plan failed: %v", err)
			}
			s = next
			w.admitted++
		case 3:
			// A plan asking for more than is free must be refused and
			// leave the state as it was.
			step = "accommodate invalid"
			job := newJob()
			plan, err := AccommodateAdditional(s, job)
			if err != nil || len(plan.Allocs) == 0 {
				break
			}
			plan.Allocs = append(plan.Allocs[:0:0], plan.Allocs...)
			plan.Allocs[0].Term.Rate += u(1000)
			if _, _, err := Accommodate(s, ConcurrentAt(job, s.Now), plan); err == nil {
				t.Fatal("accommodate accepted a plan demanding more than is free")
			}
		case 4:
			// A plan claiming to finish before its last allocation: Tick
			// completes it while its demand is still ahead.
			step = "accommodate early finish"
			job := newJob()
			plan, err := AccommodateAdditional(s, job)
			if err != nil {
				break
			}
			plan.Finish = s.Now + 1
			if next, _, err := Accommodate(s, ConcurrentAt(job, s.Now), plan); err == nil {
				s = next
			}
		case 5, 6:
			step = "tick"
			s, _, viols = Tick(s, interval.Time(1+draw(3)))
		case 7:
			step = "leave"
			if c, _, ok := pick(); ok {
				if next, _, err := Leave(s, c.Name()); err == nil {
					s = next
				}
			}
		case 8:
			step = "repair"
			if c, _, ok := pick(); ok {
				s, _ = Repair(s, c.Name(), viols)
			}
		case 9:
			switch draw(3) {
			case 0:
				step = "hand edit: renege"
				s.Theta = s.Theta.SubtractSaturating(resource.NewSet(randomTerm(s.Now)))
			case 1:
				step = "hand edit: now"
				s.Now += interval.Time(draw(4)) - 1
			default:
				step = "hand edit: excise"
				if _, i, ok := pick(); ok {
					s.Commitments = append(s.Commitments[:i:i], s.Commitments[i+1:]...)
				}
			}
		}
		if _, ok := s.view(); ok {
			w.hits++
		}
		w.steps++
		checkFreeView(t, step, s)
	}
	return w
}

func TestFreeViewMaintained(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	var total freeViewWalk
	for walk := 0; walk < 400; walk++ {
		w := walkFreeView(t, rng.Intn)
		total.steps += w.steps
		total.hits += w.hits
		total.admitted += w.admitted
		total.rejected += w.rejected
	}
	// The draw must reach the maintained view, the recompute and both
	// Theorem-4 verdicts, or the comparison proves little.
	if total.hits == 0 || total.hits == total.steps || total.admitted == 0 || total.rejected == 0 {
		t.Fatalf("degenerate draw: %+v", total)
	}
}

// FuzzFreeViewMaintained is the same walk with the fuzz input choosing
// Θ, the rules, the jobs and the hand edits.
func FuzzFreeViewMaintained(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 0, 20, 1, 1, 1, 0, 4, 5, 1, 5, 0, 7, 0, 1, 2, 0, 2, 9, 2, 5, 2, 8, 0, 6, 0})
	f.Add([]byte{4, 2, 2, 1, 5, 0, 0, 4, 2, 3, 9, 1, 3, 4, 1, 6, 1, 9, 0, 1, 0, 5, 1, 3, 20, 9, 2, 0, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		draw := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0]) % n
			data = data[1:]
			return v
		}
		walkFreeView(t, draw)
	})
}

// admittedState is a state with two commitments, its free view
// maintained by Accommodate.
func admittedState(t *testing.T) State {
	t.Helper()
	theta := resource.NewSet(
		resource.NewTerm(u(6), cpuL1, interval.New(0, 20)),
		resource.NewTerm(u(2), netL12, interval.New(0, 20)),
	)
	s := NewState(theta, 0)
	var err error
	if s, _, err = Admit(s, evalJob(t, "one", "a1", 0, 10)); err != nil {
		t.Fatal(err)
	}
	if s, _, err = Admit(s, seqJob(t, "two", "a2", 2, 20)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.view(); !ok {
		t.Fatal("Accommodate left no free view")
	}
	return s
}

func TestFreeResourcesLiteralState(t *testing.T) {
	s := admittedState(t)
	lit := State{Theta: s.Theta, Commitments: s.Commitments, Now: s.Now}
	if _, ok := lit.view(); ok {
		t.Fatal("a literal state claims a free view")
	}
	checkFreeView(t, "literal", lit)
	got, _ := lit.FreeResources()
	want, _ := s.FreeResources()
	if !got.Equal(want) {
		t.Fatalf("literal state's Θ_free %s != maintained %s", got, want)
	}
}

func TestFreeResourcesRestoredState(t *testing.T) {
	s := admittedState(t)
	s, _, _ = Tick(s, 3)
	var buf bytes.Buffer
	if err := Snapshot(s, &buf); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreState(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := restored.view(); ok {
		t.Fatal("a restored state claims a free view")
	}
	checkFreeView(t, "restored", restored)
	got, _ := restored.FreeResources()
	want, _ := s.FreeResources()
	if !got.Equal(want) {
		t.Fatalf("restored state's Θ_free %s != maintained %s", got, want)
	}
}

func TestFreeResourcesWithoutCommitmentsIsTheta(t *testing.T) {
	s := NewState(resource.NewSet(resource.NewTerm(u(4), cpuL1, interval.New(0, 10))), 0)
	free, err := s.FreeResources()
	if err != nil || !free.Same(s.Theta) {
		t.Fatalf("Θ_free of an empty ρ is not Θ itself: %s, %v", free, err)
	}
}
