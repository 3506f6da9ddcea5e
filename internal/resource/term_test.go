package resource

import (
	"testing"

	"repro/internal/interval"
)

func TestLocatedTypeString(t *testing.T) {
	tests := []struct {
		lt   LocatedType
		want string
	}{
		{CPUAt("l1"), "⟨cpu,l1⟩"},
		{Link("l1", "l2"), "⟨network,l1→l2⟩"},
		{At(Memory, "n3"), "⟨memory,n3⟩"},
		{At("gpu", "l9"), "⟨gpu,l9⟩"},
	}
	for _, tt := range tests {
		if got := tt.lt.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
	if !Link("a", "b").IsLink() || CPUAt("a").IsLink() {
		t.Error("IsLink misclassifies")
	}
	if !(LocatedType{}).Zero() || CPUAt("l1").Zero() {
		t.Error("Zero misclassifies")
	}
}

func TestParseLocatedType(t *testing.T) {
	good := []struct {
		in   string
		want LocatedType
	}{
		{"cpu@l1", CPUAt("l1")},
		{"network@l1>l2", Link("l1", "l2")},
		{"gpu@node-7", At("gpu", "node-7")},
	}
	for _, tt := range good {
		got, err := ParseLocatedType(tt.in)
		if err != nil {
			t.Fatalf("ParseLocatedType(%q): %v", tt.in, err)
		}
		if got != tt.want {
			t.Errorf("ParseLocatedType(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
	// A parenthesis or comma in a name would split or swallow the terms
	// around it when a set's text is read back.
	for _, bad := range []string{"", "cpu", "@l1", "cpu@", "cpu@l1>", "cpu@>l2", "c(0@l1", "cpu@l)", "cpu@l1>a,b"} {
		if _, err := ParseLocatedType(bad); err == nil {
			t.Errorf("ParseLocatedType(%q) should fail", bad)
		}
	}
}

func TestLocatedTypeRoundTrip(t *testing.T) {
	for _, lt := range []LocatedType{CPUAt("l1"), Link("a", "b"), At("disk", "x")} {
		got, err := ParseLocatedType(lt.compact())
		if err != nil || got != lt {
			t.Errorf("round trip %v -> %q -> %v (%v)", lt, lt.compact(), got, err)
		}
	}
}

func TestRateAndQuantityConversions(t *testing.T) {
	if FromUnits(5) != 5000 {
		t.Errorf("FromUnits(5) = %d", FromUnits(5))
	}
	if QuantityFromUnits(3).Units() != 3 {
		t.Errorf("quantity round trip failed")
	}
}

func TestTermNullAndQuantity(t *testing.T) {
	cpu := CPUAt("l1")
	tests := []struct {
		name     string
		term     Term
		wantNull bool
		wantQty  Quantity
	}{
		{"normal", NewTerm(FromUnits(5), cpu, interval.New(0, 3)), false, QuantityFromUnits(15)},
		{"empty interval", NewTerm(FromUnits(5), cpu, interval.New(3, 3)), true, 0},
		{"zero rate", NewTerm(0, cpu, interval.New(0, 3)), true, 0},
		{"negative rate", NewTerm(-1, cpu, interval.New(0, 3)), true, 0},
		{"zero value", Term{}, true, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.term.Null(); got != tt.wantNull {
				t.Errorf("Null() = %v, want %v", got, tt.wantNull)
			}
			if got := tt.term.Quantity(); got != tt.wantQty {
				t.Errorf("Quantity() = %d, want %d", got, tt.wantQty)
			}
		})
	}
}

func TestTermQuantityWithin(t *testing.T) {
	term := NewTerm(FromUnits(4), CPUAt("l1"), interval.New(2, 8))
	tests := []struct {
		window interval.Interval
		want   Quantity
	}{
		{interval.New(0, 10), QuantityFromUnits(24)},
		{interval.New(4, 6), QuantityFromUnits(8)},
		{interval.New(0, 2), 0},
		{interval.New(8, 12), 0},
		{interval.New(7, 9), QuantityFromUnits(4)},
	}
	for _, tt := range tests {
		if got := term.QuantityWithin(tt.window); got != tt.want {
			t.Errorf("QuantityWithin(%v) = %d, want %d", tt.window, got, tt.want)
		}
	}
}

func TestTermDominates(t *testing.T) {
	cpu := CPUAt("l1")
	big := NewTerm(FromUnits(5), cpu, interval.New(0, 10))
	tests := []struct {
		name  string
		small Term
		want  bool
	}{
		{"smaller inside", NewTerm(FromUnits(3), cpu, interval.New(2, 5)), true},
		{"equal", big, true},
		{"higher rate", NewTerm(FromUnits(6), cpu, interval.New(2, 5)), false},
		{"interval escapes", NewTerm(FromUnits(3), cpu, interval.New(5, 12)), false},
		{"different type", NewTerm(FromUnits(3), CPUAt("l2"), interval.New(2, 5)), false},
		{"different kind", NewTerm(FromUnits(3), Link("l1", "l2"), interval.New(2, 5)), false},
		{"null other", Term{}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := big.Dominates(tt.small); got != tt.want {
				t.Errorf("Dominates = %v, want %v", got, tt.want)
			}
		})
	}
	if (Term{}).Dominates(big) {
		t.Error("null term cannot dominate a real term")
	}
}

func TestTermSubtract(t *testing.T) {
	cpu := CPUAt("l1")
	// §III worked example: [5]cpu(0,3) − [3]cpu(1,2)
	// = {[5](0,1), [2](1,2), [5](2,3)}.
	minuend := NewTerm(FromUnits(5), cpu, interval.New(0, 3))
	subtrahend := NewTerm(FromUnits(3), cpu, interval.New(1, 2))
	got, ok := minuend.Subtract(subtrahend)
	if !ok {
		t.Fatal("Subtract should be defined")
	}
	want := NewSet(
		NewTerm(FromUnits(5), cpu, interval.New(0, 1)),
		NewTerm(FromUnits(2), cpu, interval.New(1, 2)),
		NewTerm(FromUnits(5), cpu, interval.New(2, 3)),
	)
	if !NewSet(got...).Equal(want) {
		t.Errorf("Subtract = %v, want %v", got, want)
	}
	// Undefined when not dominating.
	if _, ok := subtrahend.Subtract(minuend); ok {
		t.Error("Subtract without dominance should be undefined")
	}
	// Exact consumption leaves nothing.
	if rest, ok := minuend.Subtract(minuend); !ok || len(rest) != 0 {
		t.Errorf("t − t = %v, %v; want empty, true", rest, ok)
	}
	// Subtracting null is identity.
	if rest, ok := minuend.Subtract(Term{}); !ok || len(rest) != 1 || rest[0] != minuend {
		t.Errorf("t − null = %v, %v", rest, ok)
	}
}

func TestTermStringAndParse(t *testing.T) {
	term := NewTerm(FromUnits(5), CPUAt("l1"), interval.New(0, 3))
	if got := term.String(); got != "[5]⟨cpu,l1⟩(0,3)" {
		t.Errorf("String = %q", got)
	}
	if got := (Term{}).String(); got != "[0]" {
		t.Errorf("null String = %q", got)
	}
	frac := NewTerm(2500, CPUAt("l1"), interval.New(0, 3))
	if got := frac.String(); got != "[2.5]⟨cpu,l1⟩(0,3)" {
		t.Errorf("fractional String = %q", got)
	}

	for _, tt := range []Term{term, frac, NewTerm(FromUnits(7), Link("a", "b"), interval.New(-2, 9))} {
		back, err := ParseTerm(tt.Compact())
		if err != nil {
			t.Fatalf("ParseTerm(%q): %v", tt.Compact(), err)
		}
		if back != tt {
			t.Errorf("round trip %v -> %q -> %v", tt, tt.Compact(), back)
		}
	}
	// Rates past 2^50 milli-units would not read back as rendered.
	for _, bad := range []string{"", "5", "5:cpu@l1", "x:cpu@l1:(0,3)", "5:cpu:(0,3)", "5:cpu@l1:(0", "-5:cpu@l1:(0,3)",
		"99999999999999999:cpu@l1:(0,3)", "NaN:cpu@l1:(0,3)", "inf:cpu@l1:(0,3)"} {
		if _, err := ParseTerm(bad); err == nil {
			t.Errorf("ParseTerm(%q) should fail", bad)
		}
	}
}
