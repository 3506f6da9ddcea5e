package resource

import "testing"

func TestAmountBasics(t *testing.T) {
	a := AmountOf(4, cpuL1)
	if got := a.String(); got != "[4]⟨cpu,l1⟩" {
		t.Errorf("String = %q", got)
	}
	frac := Amount{Qty: 2500, Type: cpuL1}
	if got := frac.String(); got != "[2.500]⟨cpu,l1⟩" {
		t.Errorf("fractional String = %q", got)
	}
}

func TestAmountsAccumulation(t *testing.T) {
	m := NewAmounts(
		AmountOf(3, cpuL1),
		AmountOf(2, netL12),
		AmountOf(5, cpuL1), // accumulates with the first
		Amount{},           // ignored
	)
	if m.Empty() {
		t.Fatal("non-empty amounts misreported")
	}
	if m[cpuL1] != QuantityFromUnits(8) || m[netL12] != QuantityFromUnits(2) {
		t.Errorf("accumulation wrong: %v", m)
	}
	if m.Total() != QuantityFromUnits(10) {
		t.Errorf("Total = %d", m.Total())
	}
	types := m.Types()
	if len(types) != 2 || types[0] != cpuL1 || types[1] != netL12 {
		t.Errorf("Types = %v", types)
	}
	if got := m.String(); got != "{[8]⟨cpu,l1⟩, [2]⟨network,l1→l2⟩}" {
		t.Errorf("String = %q", got)
	}
	if got := NewAmounts().String(); got != "{}" {
		t.Errorf("empty String = %q", got)
	}
}

func TestAmountsNegativeEntriesVanish(t *testing.T) {
	m := NewAmounts(AmountOf(3, cpuL1))
	m.Add(Amount{Qty: -QuantityFromUnits(3), Type: cpuL1})
	if !m.Empty() {
		t.Errorf("cancelled entry survived: %v", m)
	}
	// Merging negative beyond zero deletes too.
	m = NewAmounts(AmountOf(1, cpuL1))
	other := Amounts{cpuL1: -QuantityFromUnits(5)}
	m.Merge(other)
	if _, present := m[cpuL1]; present {
		t.Errorf("over-cancelled entry survived: %v", m)
	}
}

func TestAmountsCloneIndependence(t *testing.T) {
	m := NewAmounts(AmountOf(3, cpuL1))
	c := m.Clone()
	c.Add(AmountOf(9, cpuL1))
	if m[cpuL1] != QuantityFromUnits(3) {
		t.Error("Clone shares storage")
	}
}

func TestAmountsSingleType(t *testing.T) {
	m := NewAmounts(AmountOf(3, cpuL1))
	if lt, ok := m.SingleType(); !ok || lt != cpuL1 {
		t.Errorf("SingleType = %v, %v", lt, ok)
	}
	m.Add(AmountOf(1, netL12))
	if _, ok := m.SingleType(); ok {
		t.Error("two-type amounts reported single")
	}
	if _, ok := NewAmounts().SingleType(); ok {
		t.Error("empty amounts reported single")
	}
}

func TestLocatedTypeOrdering(t *testing.T) {
	// less drives deterministic rendering: kind, then loc, then dst.
	ordered := []LocatedType{
		CPUAt("a"),
		CPUAt("b"),
		Link("a", "b"),
		Link("a", "c"),
		Link("b", "a"),
	}
	for i := 0; i+1 < len(ordered); i++ {
		if !ordered[i].less(ordered[i+1]) {
			t.Errorf("%v should sort before %v", ordered[i], ordered[i+1])
		}
		if ordered[i+1].less(ordered[i]) {
			t.Errorf("ordering not antisymmetric at %d", i)
		}
	}
}
