package trace

import (
	"strings"
	"sync"
	"testing"
)

func TestLogBasics(t *testing.T) {
	l := NewLog()
	if len(l.Events()) != 0 {
		t.Fatal("fresh log not empty")
	}
	l.Add(Event{At: 1, Kind: KindArrival, Job: "j1", Quantity: 10})
	l.Add(Event{At: 2, Kind: KindAdmit, Job: "j1"})
	l.Add(Event{At: 5, Kind: KindComplete, Job: "j1"})
	l.Add(Event{At: 3, Kind: KindArrival, Job: "j2"})
	if len(l.Events()) != 4 {
		t.Fatalf("Len = %d", len(l.Events()))
	}
	events := l.Events()
	if len(events) != 4 || events[0].Job != "j1" || events[0].At != 1 {
		t.Errorf("Events = %+v", events)
	}
	// Returned slice is a copy.
	events[0].Job = "mutated"
	if l.Events()[0].Job != "j1" {
		t.Error("Events exposes internal storage")
	}
	arrivals := l.Filter(KindArrival)
	if len(arrivals) != 2 || arrivals[1].Job != "j2" {
		t.Errorf("Filter = %+v", arrivals)
	}
	if got := l.Filter(KindMiss); len(got) != 0 {
		t.Errorf("Filter(miss) = %+v", got)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	l := NewLog()
	l.Add(Event{At: 0, Kind: KindJoin, Detail: "{[2]⟨cpu,l1⟩(0,10)}", Quantity: 20})
	l.Add(Event{At: 4, Kind: KindViolation, Job: "doomed", Detail: "⟨cpu,l1⟩"})
	l.Add(Event{At: 9, Kind: KindMiss, Job: "doomed"})

	var sb strings.Builder
	if err := l.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Count(out, "\n") != 3 {
		t.Fatalf("want 3 lines, got %q", out)
	}

	back, err := ReadJSONL(strings.NewReader(out + "\n\n")) // blank lines ok
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Events()) != 3 {
		t.Fatalf("round trip lost events: %d", len(back.Events()))
	}
	got := back.Events()
	want := l.Events()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

func TestReadJSONLErrors(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("not json\n")); err == nil {
		t.Error("malformed line accepted")
	}
	l, err := ReadJSONL(strings.NewReader(""))
	if err != nil || len(l.Events()) != 0 {
		t.Errorf("empty stream: %v, %d", err, len(l.Events()))
	}
}

func TestLogConcurrentSafety(t *testing.T) {
	l := NewLog()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Add(Event{At: int64(i), Kind: KindArrival})
				_ = len(l.Events())
				_ = l.Filter(KindArrival)
			}
		}(g)
	}
	wg.Wait()
	if len(l.Events()) != 800 {
		t.Fatalf("Len = %d, want 800", len(l.Events()))
	}
}
