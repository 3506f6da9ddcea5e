package server

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/interval"
	"repro/internal/query"
	"repro/internal/resource"
)

// loadedQueryServer builds a daemon whose ledger carries n live
// commitments — the E14 setup, measuring query latency as a function of
// ledger size. Jobs are staggered so every one admits.
func loadedQueryServer(b testing.TB, n int) *Server {
	b.Helper()
	horizon := interval.Time(10*n + 1000)
	theta := cpuTheta(int64(64), horizon, "l1", "l2", "l3", "l4")
	srv, err := New(Config{Theta: theta})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = srv.Shutdown(context.Background()) })
	locs := []resource.Location{"l1", "l2", "l3", "l4"}
	for i := 0; i < n; i++ {
		start := interval.Time(i * 10)
		job := cpuJob(b, fmt.Sprintf("bench-%d", i), locs[i%len(locs)], start, start+1000)
		dec, err := srv.Ledger().Admit(srv.cfg.Policy, job)
		if err != nil || !dec.Admit {
			b.Fatalf("preload admit %d: admit=%v err=%v", i, dec.Admit, err)
		}
	}
	return srv
}

// TestEvalQueryAllocationBudget: a one-shot feasible(j) over a loaded
// ledger allocates what its answer is made of and nothing more. The
// budget, counted from a -memprofilerate 1 profile of this call:
//   - the snapshot: its run of resolved commitments (1, 96 B), the
//     commitment's locations (1, 16 B), its demand as the union of its
//     parts and that trimmed to the clock (2, 160 B), and the footprint
//     (1, 16 B);
//   - the evaluation: its one-state path (1, 64 B), the satisfy atom
//     boxed as a formula (1, 48 B), its amounts (1, 64 B) and its reads
//     (1, 80 B);
//   - the answer's rendering of that formula (9, 232 B).
//
// That is 18 allocations and 776 B, held to 18 and 1 KiB. A map of the
// resolved commitments would cost its header and first group, two
// allocations and about 940 B, and break both bounds on its own.
func TestEvalQueryAllocationBudget(t *testing.T) {
	srv := loadedQueryServer(t, 100)
	c, err := query.ParseText("feasible(bench-0)")
	if err != nil {
		t.Fatal(err)
	}
	eval := func() {
		if _, err := srv.EvalQuery(c); err != nil {
			t.Fatal(err)
		}
	}
	eval() // warm the ledger's and fmt's pools
	// The cost is the least of several single evaluations, so a
	// background allocation landing in one does not count, nor does a
	// pooled buffer the race detector's sync.Pool dropped.
	var before, after runtime.MemStats
	allocs, bytes := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for i := 0; i < 16; i++ {
		runtime.ReadMemStats(&before)
		eval()
		runtime.ReadMemStats(&after)
		allocs = min(allocs, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("%s: %d allocations, %d B per evaluation", c.Source(), allocs, bytes)
	if allocs > 18 || bytes > 1024 {
		t.Fatalf("one evaluation of %s makes %d allocations and %d B, want at most 18 and 1 KiB", c.Source(), allocs, bytes)
	}
}

func BenchmarkQueryParse(b *testing.B) {
	const src = "holds(l1, cpu>=5, always, next 30) and feasible(bench-1, before deadline)"
	for i := 0; i < b.N; i++ {
		if _, err := query.ParseText(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryLoadedLedger evaluates one-shot queries against ledgers
// preloaded with 10, 100 and 1000 live commitments: the availability
// form walks one location's free profile, the standing form is a □ over
// a long window, the shape a standing watch re-evaluates, and the
// feasibility form resolves a named commitment's remaining demand first.
func BenchmarkQueryLoadedLedger(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		srv := loadedQueryServer(b, n)
		shapes := []struct {
			name string
			c    *query.Compiled
		}{
			{"holds", mustParse(b, "holds(l1, cpu>=1, eventually, next 100)")},
			{"standing", mustParse(b, "holds(l1, cpu>=8, always, next 4096)")},
			{"feasible", mustParse(b, fmt.Sprintf("feasible(bench-%d)", n/2))},
		}
		for _, shape := range shapes {
			b.Run(fmt.Sprintf("%s/commitments=%d", shape.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := srv.EvalQuery(shape.c); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func mustParse(b *testing.B, src string) *query.Compiled {
	b.Helper()
	c, err := query.ParseText(src)
	if err != nil {
		b.Fatal(err)
	}
	return c
}
