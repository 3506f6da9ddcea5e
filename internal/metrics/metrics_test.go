package metrics

import (
	"strings"
	"testing"
)

func TestMean(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %f", got)
	}
	if got := Mean([]float64{2, 4, 6}); got != 4 {
		t.Errorf("Mean = %f", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	tests := []struct {
		p    float64
		want float64
	}{{0, 1}, {50, 5}, {90, 9}, {100, 10}, {-5, 1}, {120, 10}}
	for _, tt := range tests {
		if got := Percentile(xs, tt.p); got != tt.want {
			t.Errorf("Percentile(%f) = %f, want %f", tt.p, got, tt.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile(nil) = %f", got)
	}
	// Input must not be reordered.
	if xs[0] != 9 {
		t.Error("Percentile mutated its input")
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("E0: demo", "policy", "miss-rate", "n")
	tb.AddRow("rota", 0.0, 10)
	tb.AddRow("always-admit", 0.4567, 10)
	tb.AddRow("x", float32(123.456), 1)
	tb.AddNote("seed=%d", 7)
	if tb.NumRows() != 3 {
		t.Fatalf("NumRows = %d", tb.NumRows())
	}
	var sb strings.Builder
	tb.Render(&sb)
	out := sb.String()
	for _, want := range []string{"E0: demo", "policy", "miss-rate", "rota", "always-admit", "0.457", "123.5", "note: seed=7", "-+-"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Integral floats print without decimals.
	if !strings.Contains(out, " 0 ") && !strings.Contains(out, " 0 |") && !strings.Contains(out, "| 0") {
		t.Errorf("integral float not compacted:\n%s", out)
	}
}

func TestTableRenderCSV(t *testing.T) {
	tb := NewTable("t", "a", "b")
	tb.AddRow(`comma,here`, `quote"here`)
	tb.AddRow(1, 2)
	var sb strings.Builder
	tb.RenderCSV(&sb)
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %v", lines)
	}
	if lines[0] != "a,b" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != `"comma,here","quote""here"` {
		t.Errorf("escaped row = %q", lines[1])
	}
	if lines[2] != "1,2" {
		t.Errorf("plain row = %q", lines[2])
	}
}

func TestTableRenderRaggedRows(t *testing.T) {
	tb := NewTable("ragged", "a", "b")
	tb.AddRow(1, 2, 3, 4) // more cells than headers must not panic
	tb.AddRow(5)
	var sb strings.Builder
	tb.Render(&sb)
	out := sb.String()
	for _, want := range []string{"1", "2", "3", "4", "5"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	var csv strings.Builder
	tb.RenderCSV(&csv)
	if !strings.Contains(csv.String(), "1,2,3,4") {
		t.Errorf("CSV dropped extra cells:\n%s", csv.String())
	}
}
