package server

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/interval"
	"repro/internal/query"
	"repro/internal/resource"
)

// loadedQueryServer builds a daemon whose ledger carries n live
// commitments — the E14 setup, measuring query latency as a function of
// ledger size. Jobs are staggered so every one admits.
func loadedQueryServer(b *testing.B, n int) *Server {
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
