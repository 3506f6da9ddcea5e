package server

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/admission"
	"repro/internal/interval"
	"repro/internal/obs/assure"
	"repro/internal/resource"
	"repro/internal/workload"
)

// benchAdmitLedger builds a ledger over nLocs shards, pre-loaded with
// `commits` live commitments whose windows are staggered so the shard
// profiles carry many segments — the loaded-ledger shape the admit hot
// path has to stay fast on.
func benchAdmitLedger(b testing.TB, nLocs, commits int, promises *assure.Ledger) (*Ledger, []resource.Location) {
	b.Helper()
	locs := make([]resource.Location, nLocs)
	for i := range locs {
		locs[i] = resource.Location(fmt.Sprintf("l%d", i+1))
	}
	// Plenty of headroom: the benchmark measures decide+reserve cost,
	// not rejection churn.
	l := NewLedger(Config{Theta: cpuTheta(512, 1<<20, locs...), Assure: promises}, nil)
	policy := &admission.Rota{}
	for k := 0; k < commits; k++ {
		start := interval.Time((k * 8) % 4096)
		job := cpuJob(b, fmt.Sprintf("pre%d", k), locs[k%nLocs], start, start+128)
		if dec, err := l.Admit(policy, job); err != nil || !dec.Admit {
			b.Fatalf("preload %d: %v %+v", k, err, dec)
		}
	}
	return l, locs
}

// benchAdmitLoop drives conc goroutines through admit+release pairs of
// a job footprinting fpLocs shards, b.N admissions total.
func benchAdmitLoop(b *testing.B, l *Ledger, fpLocs []resource.Location, conc int) {
	b.Helper()
	policy := &admission.Rota{}
	jobs := make([]workload.Job, conc)
	for g := range jobs {
		name := fmt.Sprintf("bench-g%d", g)
		if len(fpLocs) == 1 {
			jobs[g] = cpuJob(b, name, fpLocs[0], 0, 1<<20)
		} else {
			jobs[g] = triJob(b, name, fpLocs, 0, 1<<20)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for g := 0; g < conc; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			n := b.N / conc
			if g < b.N%conc {
				n++
			}
			job := jobs[g]
			for i := 0; i < n; i++ {
				dec, err := l.Admit(policy, job)
				if err != nil {
					b.Errorf("admit: %v", err)
					return
				}
				if dec.Admit {
					if err := l.Release(job.Dist.Name); err != nil {
						b.Errorf("release: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	b.StopTimer()
	if err := l.Audit(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAdmitHot measures the admission decide+reserve loop with the
// promise ledger attached (the shipping configuration) across shard
// count, resident commitments and concurrency. The near-capacity cells
// (rate > 0) run an empty one-shard ledger whose Θ rate is that low, so
// concurrent plans conflict; every cell reports the optimistic
// planner's retries/op and fallbacks/op (ROADMAP 8(b)).
func BenchmarkAdmitHot(b *testing.B) {
	type cell struct {
		locs, commits, conc int
		rate                int64
	}
	cells := []cell{
		{1, 100, 1, 0}, {1, 100, 8, 0}, {1, 100, 64, 0},
		{3, 100, 1, 0}, {3, 100, 8, 0}, {3, 100, 64, 0},
		{1, 10, 64, 0}, {1, 1000, 64, 0},
		{1, 0, 64, 1}, {1, 0, 64, 4}, {1, 0, 64, 64},
	}
	for _, c := range cells {
		name := fmt.Sprintf("locs=%d/commits=%d/conc=%d", c.locs, c.commits, c.conc)
		if c.rate > 0 {
			name = fmt.Sprintf("locs=%d/rate=%d/conc=%d", c.locs, c.rate, c.conc)
		}
		b.Run(name, func(b *testing.B) {
			l, locs := benchAdmitLedger(b, c.locs, c.commits, assure.New("bench"))
			if c.rate > 0 {
				l = NewLedger(Config{Theta: cpuTheta(c.rate, 1<<20, locs...), Assure: assure.New("bench")}, nil)
			}
			fp := locs
			if c.locs == 1 {
				fp = locs[:1]
			}
			benchAdmitLoop(b, l, fp, c.conc)
			hot := l.AdmitHot()
			b.ReportMetric(float64(hot.PlanRetries)/float64(b.N), "retries/op")
			b.ReportMetric(float64(hot.PlanFallbacks)/float64(b.N), "fallbacks/op")
		})
	}
}

// BenchmarkAssureOverhead isolates the promise-ledger cost on the
// admit+release hot loop: identical cells with the assure ledger
// detached (off) and attached (on). The acceptance bar is on within 5%
// of off. Two things keep it there: per admission the ledger does one
// map insert and one histogram observation off the shard locks, and
// open promises are stored as compact inline map values so a loaded
// node's thousand live promises add almost nothing to the GC mark
// cycle (see the comment on assure.Ledger.active).
func BenchmarkAssureOverhead(b *testing.B) {
	type cell struct{ locs, commits, conc int }
	cells := []cell{{1, 100, 1}, {1, 100, 64}, {1, 1000, 64}, {3, 100, 64}}
	for _, mode := range []string{"off", "on"} {
		for _, c := range cells {
			name := fmt.Sprintf("assure=%s/locs=%d/commits=%d/conc=%d", mode, c.locs, c.commits, c.conc)
			b.Run(name, func(b *testing.B) {
				var promises *assure.Ledger
				if mode == "on" {
					promises = assure.New("bench")
				}
				l, locs := benchAdmitLedger(b, c.locs, c.commits, promises)
				fp := locs
				if c.locs == 1 {
					fp = locs[:1]
				}
				benchAdmitLoop(b, l, fp, c.conc)
			})
		}
	}
}
