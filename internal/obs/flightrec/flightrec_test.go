package flightrec

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs/span"
)

func TestEventRingEviction(t *testing.T) {
	r := New("n1", 4, 8, nil)
	for i := 0; i < 6; i++ {
		r.Record(fmt.Sprintf("line-%d", i))
	}
	id, ok := r.Trigger("test", "")
	if !ok || id == "" {
		t.Fatalf("trigger = %q, %v", id, ok)
	}
	snap, ok := r.Get(id)
	if !ok {
		t.Fatal("snapshot not retrievable by ID")
	}
	if len(snap.Events) != 4 {
		t.Fatalf("snapshot holds %d events, ring cap is 4", len(snap.Events))
	}
	// Oldest first, and the first two lines were overwritten.
	if snap.Events[0].Line != "line-2" || snap.Events[3].Line != "line-5" {
		t.Fatalf("ring window = %q .. %q, want line-2 .. line-5", snap.Events[0].Line, snap.Events[3].Line)
	}
	for i := 1; i < len(snap.Events); i++ {
		if snap.Events[i].Seq != snap.Events[i-1].Seq+1 {
			t.Fatalf("event seqs not consecutive: %d then %d", snap.Events[i-1].Seq, snap.Events[i].Seq)
		}
	}
	if st := r.Stats(); st.Events != 4 || st.EventCapacity != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSnapshotRingEviction(t *testing.T) {
	r := New("n1", 8, 2, nil)
	clock := time.Unix(0, 0)
	r.nowFn = func() time.Time { return clock }
	var ids []string
	for i := 0; i < 3; i++ {
		clock = clock.Add(2 * time.Second) // outside the dedup window
		id, ok := r.Trigger("kind", fmt.Sprintf("round-%d", i))
		if !ok {
			t.Fatalf("trigger %d deduped unexpectedly", i)
		}
		ids = append(ids, id)
	}
	snaps := r.Snapshots()
	if len(snaps) != 2 {
		t.Fatalf("%d snapshots held, cap is 2", len(snaps))
	}
	if snaps[0].ID != ids[1] || snaps[1].ID != ids[2] {
		t.Fatalf("held %s,%s; want the newest two %s,%s", snaps[0].ID, snaps[1].ID, ids[1], ids[2])
	}
	if _, ok := r.Get(ids[0]); ok {
		t.Fatal("evicted snapshot still retrievable")
	}
	if st := r.Stats(); st.Evicted != 1 || st.Triggers != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestConcurrentTriggerDedup(t *testing.T) {
	r := New("n1", 8, 16, nil)
	var wg sync.WaitGroup
	taken := make([]bool, 32)
	for i := range taken {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, taken[i] = r.Trigger("storm", "")
		}(i)
	}
	wg.Wait()
	got := 0
	for _, ok := range taken {
		if ok {
			got++
		}
	}
	if got != 1 {
		t.Fatalf("%d snapshots from a 32-goroutine trigger storm, want exactly 1", got)
	}
	st := r.Stats()
	if st.Snapshots != 1 || st.Deduped != 31 || st.Triggers != 32 {
		t.Fatalf("stats = %+v", st)
	}
	// A different kind is not suppressed by the storm's window.
	if _, ok := r.Trigger("other", ""); !ok {
		t.Fatal("distinct trigger kind was deduped")
	}
}

func TestWriterSplitsLines(t *testing.T) {
	r := New("n1", 8, 4, nil)
	w := r.Writer()
	if _, err := fmt.Fprintf(w, "first\nsecond\n"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("third")); err != nil {
		t.Fatal(err)
	}
	id, _ := r.Trigger("t", "")
	snap, _ := r.Get(id)
	if len(snap.Events) != 3 {
		t.Fatalf("%d events recorded, want 3", len(snap.Events))
	}
	for i, want := range []string{"first", "second", "third"} {
		if snap.Events[i].Line != want {
			t.Fatalf("event %d = %q, want %q", i, snap.Events[i].Line, want)
		}
	}
}

func TestTriggerSamplesSpansAndState(t *testing.T) {
	st := span.NewStore(16, "n1")
	_, sp := st.Start(t.Context(), span.KindAdmit)
	sp.End()
	r := New("n1", 8, 4, st)
	r.SetState(func() any { return map[string]any{"epoch": 7} })
	id, _ := r.Trigger("t", "why")
	snap, _ := r.Get(id)
	if len(snap.Spans) == 0 {
		t.Fatal("snapshot carries no spans")
	}
	if snap.State == nil {
		t.Fatal("snapshot carries no state")
	}
	if snap.Detail != "why" {
		t.Fatalf("detail = %q", snap.Detail)
	}
	// The freeze itself leaves a flightrec span (recorded after the
	// snapshot, so it is not self-captured).
	found := false
	for _, rec := range st.Snapshot() {
		if rec.Kind == string(span.KindFlightRec) && rec.Attrs["snapshot"] == id {
			found = true
		}
	}
	if !found {
		t.Fatal("no flightrec span recorded for the freeze")
	}
	for _, rec := range snap.Spans {
		if rec.Kind == string(span.KindFlightRec) && rec.Attrs["snapshot"] == id {
			t.Fatal("snapshot captured its own freeze span")
		}
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Record("x")
	r.SetState(nil)
	if _, ok := r.Trigger("t", ""); ok {
		t.Fatal("nil recorder took a snapshot")
	}
	if _, err := r.Writer().Write([]byte("x\n")); err != nil {
		t.Fatal(err)
	}
	if r.Snapshots() != nil {
		t.Fatal("nil recorder returned snapshots")
	}
	if _, ok := r.Get("id"); ok {
		t.Fatal("nil recorder found a snapshot")
	}
	if st := r.Stats(); st.Snapshots != 0 {
		t.Fatalf("nil stats = %+v", st)
	}
}

// rec builds a span record for merge tests.
func rec(trace, id, parent, node, kind string, startNS int64) span.Record {
	return span.Record{Trace: trace, ID: id, Parent: parent, Node: node, Kind: kind, StartUnixNS: startNS}
}

func TestMergeCrossNodeTimeline(t *testing.T) {
	base := time.Unix(100, 0)
	snapA := Snapshot{
		ID: "n1-1", Node: "n1", Trigger: TriggerEviction, Wall: base,
		Events: []Event{
			{Seq: 1, Wall: base.Add(-2 * time.Second), Line: "event=a"},
			{Seq: 2, Wall: base.Add(-1 * time.Second), Line: "event=b"},
		},
		Spans: []span.Record{
			rec("tr1", "s1", "", "n1", "forward", 1),
			rec("tr1", "s2", "s1", "n1", "rpc", 2),
		},
	}
	snapB := Snapshot{
		ID: "n2-1", Node: "n2", Trigger: TriggerEviction, Wall: base.Add(50 * time.Millisecond),
		Events: []Event{
			{Seq: 9, Wall: base.Add(-1500 * time.Millisecond), Line: "event=c"},
		},
		Spans: []span.Record{
			rec("tr1", "s2", "s1", "n1", "rpc", 2), // duplicate across snapshots
			rec("tr1", "s3", "s2", "n2", "admit", 3),
			rec("tr2", "x1", "missing", "n2", "plan", 4), // disconnected trace
		},
	}
	inc := Merge([]Snapshot{snapA, snapB})
	if len(inc.Snapshots) != 2 {
		t.Fatalf("%d snapshots merged", len(inc.Snapshots))
	}
	if len(inc.Nodes) != 2 || inc.Nodes[0] != "n1" || inc.Nodes[1] != "n2" {
		t.Fatalf("nodes = %v", inc.Nodes)
	}
	// Timeline interleaves both nodes' events by wall time.
	if len(inc.Timeline) != 3 {
		t.Fatalf("timeline has %d entries, want 3", len(inc.Timeline))
	}
	wantOrder := []string{"event=a", "event=c", "event=b"}
	for i, want := range wantOrder {
		if inc.Timeline[i].Line != want {
			t.Fatalf("timeline[%d] = %q, want %q", i, inc.Timeline[i].Line, want)
		}
	}
	// tr1 is connected (s1 <- s2 <- s3, dup removed) and spans two nodes;
	// tr2 is disconnected and must not count.
	if len(inc.CrossNode) != 1 || inc.CrossNode[0].Trace != "tr1" {
		t.Fatalf("cross-node traces = %d", len(inc.CrossNode))
	}
	if inc.CrossNode[0].Spans != 3 {
		t.Fatalf("tr1 merged to %d spans, want 3 (duplicate collapsed)", inc.CrossNode[0].Spans)
	}

	var buf bytes.Buffer
	inc.WriteReport(&buf, 0)
	out := buf.String()
	for _, want := range []string{"n1-1", "n2-1", TriggerEviction, "tr1", "event=c"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestMergeDedupsEventsBySeq(t *testing.T) {
	base := time.Unix(100, 0)
	ev := Event{Seq: 5, Wall: base, Line: "shared"}
	// The same node's event appears in two snapshots (two triggers close
	// together); the timeline must carry it once.
	inc := Merge([]Snapshot{
		{ID: "n1-1", Node: "n1", Wall: base, Events: []Event{ev}},
		{ID: "n1-2", Node: "n1", Wall: base.Add(time.Second), Events: []Event{ev}},
	})
	if len(inc.Timeline) != 1 {
		t.Fatalf("timeline has %d entries, want 1 after dedup", len(inc.Timeline))
	}
}
