package resource

import (
	"encoding/json"
	"testing"

	"repro/internal/interval"
)

func TestLocatedTypeJSONRoundTrip(t *testing.T) {
	for _, lt := range []LocatedType{CPUAt("l1"), Link("a", "b"), At("disk", "n9"), {}} {
		data, err := json.Marshal(lt)
		if err != nil {
			t.Fatalf("Marshal(%v): %v", lt, err)
		}
		var back LocatedType
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("Unmarshal(%s): %v", data, err)
		}
		if back != lt {
			t.Errorf("round trip %v -> %s -> %v", lt, data, back)
		}
	}
	var bad LocatedType
	if err := json.Unmarshal([]byte(`"nonsense"`), &bad); err == nil {
		t.Error("malformed located type accepted")
	}
}

func TestTermJSONRoundTrip(t *testing.T) {
	terms := []Term{
		NewTerm(u(5), cpuL1, interval.New(0, 3)),
		NewTerm(2500, netL12, interval.New(-4, 9)),
		{}, // null term renders as "0"
	}
	for _, term := range terms {
		data, err := json.Marshal(term)
		if err != nil {
			t.Fatalf("Marshal(%v): %v", term, err)
		}
		var back Term
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("Unmarshal(%s): %v", data, err)
		}
		if back != term {
			t.Errorf("round trip %v -> %s -> %v", term, data, back)
		}
	}
	var bad Term
	if err := json.Unmarshal([]byte(`"xx"`), &bad); err == nil {
		t.Error("malformed term accepted")
	}
}

func TestSetJSONRoundTrip(t *testing.T) {
	sets := []Set{
		{},
		NewSet(NewTerm(u(5), cpuL1, interval.New(0, 3))),
		NewSet(
			NewTerm(u(5), cpuL1, interval.New(0, 3)),
			NewTerm(u(2), netL12, interval.New(1, 8)),
			NewTerm(u(5), cpuL1, interval.New(2, 6)), // forces simplification
		),
	}
	for _, s := range sets {
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("Marshal(%v): %v", s, err)
		}
		var back Set
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("Unmarshal(%s): %v", data, err)
		}
		if !back.Equal(s) {
			t.Errorf("round trip %v -> %s -> %v", s, data, back)
		}
	}
	var bad Set
	if err := json.Unmarshal([]byte(`"zzz"`), &bad); err == nil {
		t.Error("malformed set accepted")
	}
}

func TestSetJSONInsideStruct(t *testing.T) {
	type snapshot struct {
		Now   int64 `json:"now"`
		Theta Set   `json:"theta"`
	}
	in := snapshot{
		Now:   7,
		Theta: NewSet(NewTerm(u(3), cpuL1, interval.New(7, 20))),
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out snapshot
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Now != 7 || !out.Theta.Equal(in.Theta) {
		t.Errorf("round trip: %+v -> %s -> %+v", in, data, out)
	}
}
