package span_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/span"
)

// admitTree records the span tree the daemon records for one admitted
// job — admit → validate, plan, reserve — with the attributes it sets.
func admitTree(st *span.Store, ctx context.Context, job string, deadline, finish int64) {
	actx, admit := st.Start(ctx, span.KindAdmit)
	_, validate := st.Start(actx, span.KindValidate)
	validate.Str("job", job)
	validate.End()
	admit.Str("job", job)
	admit.Int("deadline", deadline)
	admit.Int("queue_wait_us", 3)
	_, plan := st.Start(actx, span.KindPlan)
	plan.Str("job", job)
	plan.Int("actors", 1)
	plan.End()
	_, reserve := st.Start(actx, span.KindReserve)
	reserve.Str("job", job)
	reserve.Int("shards", 1)
	reserve.End()
	admit.Attr("admit", true)
	admit.Int("finish", finish)
	admit.End()
}

// TestSpanTreeAllocs pins what a span costs: its Span, its context and
// its ID — three allocations each, twelve for the admit tree. Setting
// attributes and committing the records to the ring cost nothing.
func TestSpanTreeAllocs(t *testing.T) {
	st := span.NewStore(64, "n1")
	ctx := obs.WithTrace(context.Background(), obs.MintID())
	job := strings.Repeat("j", 12)
	if n := testing.AllocsPerRun(1000, func() { admitTree(st, ctx, job, 6400, 4200) }); n > 12 {
		t.Fatalf("admit span tree allocates %.1f times, want ≤ 12", n)
	}
}

// TestSpanTreeRendersAttrs: typed attributes read back as %v rendered
// them; a key set twice keeps its last value; a span may set more
// attributes than it holds inline.
func TestSpanTreeRendersAttrs(t *testing.T) {
	st := span.NewStore(64, "n1")
	ctx := obs.WithTrace(context.Background(), "t")
	admitTree(st, ctx, "big job", -5, 1<<40)
	_, sp := st.Start(ctx, span.KindMigrate)
	sp.Attr("error", errors.New("boom"))
	sp.Attr("wait", 1500*time.Microsecond)
	sp.Attr("epoch", uint64(1<<63))
	sp.Attr("outcome", "aborted")
	sp.Attr("detached", false)
	sp.Attr("outcome", "redirected")
	sp.Attr("count", 7)
	sp.Attr("nil", nil)
	sp.End()

	want := map[string]map[string]string{
		span.KindAdmit:    {"job": "big job", "deadline": "-5", "queue_wait_us": "3", "admit": "true", "finish": "1099511627776"},
		span.KindValidate: {"job": "big job"},
		span.KindPlan:     {"job": "big job", "actors": "1"},
		span.KindReserve:  {"job": "big job", "shards": "1"},
		span.KindMigrate: {"error": "boom", "wait": "1.5ms", "epoch": "9223372036854775808",
			"outcome": "redirected", "detached": "false", "count": "7", "nil": "<nil>"},
	}
	recs := st.Trace("t")
	if len(recs) != len(want) {
		t.Fatalf("got %d records, want %d", len(recs), len(want))
	}
	for _, r := range recs {
		w := want[r.Kind]
		if len(r.Attrs) != len(w) {
			t.Errorf("%s attrs = %v, want %v", r.Kind, r.Attrs, w)
		}
		for k, v := range w {
			if r.Attrs[k] != v {
				t.Errorf("%s attr %s = %q, want %q", r.Kind, k, r.Attrs[k], v)
			}
		}
	}
}

// TestMintedIDsDistinct: trace and span IDs minted from eight
// goroutines across two stores are all distinct and all 16 lowercase
// hex characters.
func TestMintedIDsDistinct(t *testing.T) {
	const goroutines, perG = 8, 6250 // two IDs a span: 100 000 in all
	stores := []*span.Store{span.NewStore(16, "n1"), span.NewStore(16, "n2")}
	ids := make([][]string, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			st := stores[g%len(stores)]
			for i := 0; i < perG; i++ {
				_, sp := st.Start(context.Background(), span.KindAdmit)
				ids[g] = append(ids[g], sp.TraceID(), sp.ID())
				sp.End()
			}
		}(g)
	}
	wg.Wait()
	seen := make(map[string]bool, 2*goroutines*perG)
	for _, list := range ids {
		for _, id := range list {
			if len(id) != 16 || strings.Trim(id, "0123456789abcdef") != "" {
				t.Fatalf("ID %q is not 16 lowercase hex characters", id)
			}
			if seen[id] {
				t.Fatalf("ID %q minted twice", id)
			}
			seen[id] = true
		}
	}
	if len(seen) != 100000 {
		t.Fatalf("minted %d distinct IDs, want 100000", len(seen))
	}
}

func BenchmarkSpanTree(b *testing.B) {
	st := span.NewStore(span.DefaultCapacity, "n1")
	ctx := obs.WithTrace(context.Background(), obs.MintID())
	job := strings.Repeat("j", 12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		admitTree(st, ctx, job, 6400, 4200)
	}
}
