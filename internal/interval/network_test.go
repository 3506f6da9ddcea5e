package interval

import (
	"errors"
	"math/rand"
	"testing"
)

func TestNetworkBasics(t *testing.T) {
	nw := NewNetwork("a", "b")
	if nw.Size() != 2 {
		t.Fatalf("Size = %d", nw.Size())
	}
	if nw.Name(0) != "a" || nw.Name(1) != "b" {
		t.Error("names wrong")
	}
	// Duplicate add returns existing index.
	if got := nw.AddVariable("a"); got != 0 {
		t.Errorf("duplicate AddVariable = %d", got)
	}
	// Self edge is {Equal}.
	if got := nw.Constraint(0, 0); got != NewRelSet(Equal) {
		t.Errorf("self constraint = %v", got)
	}
	// New edges start unconstrained.
	if got := nw.Constraint(0, 1); got != FullRelSet {
		t.Errorf("initial constraint = %v", got)
	}
}

func TestNetworkConstrainSymmetry(t *testing.T) {
	nw := NewNetwork("a", "b")
	if err := nw.Constrain(0, 1, NewRelSet(Before, Meets)); err != nil {
		t.Fatal(err)
	}
	if got := nw.Constraint(1, 0); got != NewRelSet(After, MetBy) {
		t.Errorf("converse edge = %v", got)
	}
	// Conflicting constraint yields inconsistency.
	if err := nw.Constrain(0, 1, NewRelSet(After)); !errors.Is(err, ErrInconsistent) {
		t.Errorf("expected ErrInconsistent, got %v", err)
	}
	// Out-of-range index errors.
	if err := nw.Constrain(0, 9, FullRelSet); err == nil {
		t.Error("expected range error")
	}
	// Self edge must keep Equal.
	if err := nw.Constrain(0, 0, NewRelSet(Before)); !errors.Is(err, ErrInconsistent) {
		t.Errorf("self constraint without Equal should be inconsistent, got %v", err)
	}
	if err := nw.Constrain(0, 0, FullRelSet); err != nil {
		t.Errorf("self constraint with Equal should be fine, got %v", err)
	}
}

func TestPropagateDetectsInconsistency(t *testing.T) {
	// a before b, b before c, c before a is unsatisfiable.
	nw := NewNetwork("a", "b", "c")
	mustConstrain(t, nw, 0, 1, NewRelSet(Before))
	mustConstrain(t, nw, 1, 2, NewRelSet(Before))
	mustConstrain(t, nw, 2, 0, NewRelSet(Before))
	if err := nw.Propagate(); !errors.Is(err, ErrInconsistent) {
		t.Errorf("expected inconsistency, got %v", err)
	}
}

func TestPropagateTightens(t *testing.T) {
	// a before b, b before c ⇒ a before c.
	nw := NewNetwork("a", "b", "c")
	mustConstrain(t, nw, 0, 1, NewRelSet(Before))
	mustConstrain(t, nw, 1, 2, NewRelSet(Before))
	if err := nw.Propagate(); err != nil {
		t.Fatal(err)
	}
	if got := nw.Constraint(0, 2); got != NewRelSet(Before) {
		t.Errorf("a-c constraint = %v, want {before}", got)
	}
}

func TestPropertyPropagationPreservesSolutions(t *testing.T) {
	// Any concrete solution of the original constraints must survive
	// propagation (propagation only removes impossible relations).
	rng := rand.New(rand.NewSource(33))
	for iter := 0; iter < 200; iter++ {
		n := 3 + rng.Intn(3)
		truth := make([]Interval, n)
		nw := NewNetwork()
		for i := 0; i < n; i++ {
			truth[i] = randInterval(rng)
			nw.AddVariable(string(rune('a' + i)))
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				// A disjunction that includes the truth plus random noise.
				label := NewRelSet(RelationBetween(truth[i], truth[j]))
				for k := 0; k < rng.Intn(4); k++ {
					label = label.Add(AllRelations[rng.Intn(13)])
				}
				mustConstrain(t, nw, i, j, label)
			}
		}
		if err := nw.Propagate(); err != nil {
			t.Fatalf("iter %d: propagation rejected satisfiable network: %v", iter, err)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				want := RelationBetween(truth[i], truth[j])
				if !nw.Constraint(i, j).Has(want) {
					t.Fatalf("iter %d: propagation dropped true relation %v on (%d,%d)", iter, want, i, j)
				}
			}
		}
	}
}

func mustConstrain(t *testing.T, nw *Network, i, j int, rels RelSet) {
	t.Helper()
	if err := nw.Constrain(i, j, rels); err != nil {
		t.Fatalf("Constrain(%d, %d, %v): %v", i, j, rels, err)
	}
}

func BenchmarkPropagate(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < b.N; i++ {
		n := 8
		truth := make([]Interval, n)
		nw := NewNetwork()
		for v := 0; v < n; v++ {
			truth[v] = randInterval(rng)
			nw.AddVariable(string(rune('a' + v)))
		}
		for v := 0; v < n; v++ {
			for w := v + 1; w < n; w++ {
				_ = nw.Constrain(v, w, NewRelSet(RelationBetween(truth[v], truth[w])))
			}
		}
		if err := nw.Propagate(); err != nil {
			b.Fatal(err)
		}
	}
}
