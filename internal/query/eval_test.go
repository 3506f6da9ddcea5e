package query

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/interval"
	"repro/internal/resource"
)

// standingQuery is the shape of a standing subscription: a modal holds
// atom sampled at every position of a long speculative path.
const standingQuery = "holds(l1, cpu>=1, always, next 4096)"

// segmentedView is a free view of cpu at l1 over [0, 4096) cut into n
// segments of alternating rate, so none coalesce.
func segmentedView(n int) Snapshot {
	var free resource.Set
	width := interval.Time(4096 / n)
	for i := 0; i < n; i++ {
		start := interval.Time(i) * width
		free.Add(resource.NewTerm(resource.FromUnits(2+int64(i%2)),
			resource.At("cpu", "l1"), interval.New(start, start+width)))
	}
	return Snapshot{Free: free, Commitments: map[string]Commitment{}}
}

// evaluateFootprint returns the mallocs and bytes one Evaluate of the
// compiled query over the snapshot costs.
func evaluateFootprint(t *testing.T, c *Compiled, snap Snapshot) (allocs, bytes float64) {
	t.Helper()
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs = testing.AllocsPerRun(runs, func() {
		if _, err := c.Evaluate(snap); err != nil {
			t.Fatal(err)
		}
	})
	runtime.ReadMemStats(&after)
	// AllocsPerRun makes one warm-up call besides the measured runs.
	return allocs, float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
}

// TestEvaluateCostIndependentOfViewSize: a simple atom reads one
// quantity per position, so a standing query over a view ten times as
// fragmented must not allocate in proportion to it.
func TestEvaluateCostIndependentOfViewSize(t *testing.T) {
	c := mustParse(t, standingQuery)
	small, large := segmentedView(200), segmentedView(2000)
	if got := small.Free.NumTerms(); got != 200 {
		t.Fatalf("small view has %d segments", got)
	}
	if got := large.Free.NumTerms(); got != 2000 {
		t.Fatalf("large view has %d segments", got)
	}
	smallAllocs, smallBytes := evaluateFootprint(t, c, small)
	largeAllocs, largeBytes := evaluateFootprint(t, c, large)
	t.Logf("200 segments: %.0f allocs, %.0f B; 2000 segments: %.0f allocs, %.0f B",
		smallAllocs, smallBytes, largeAllocs, largeBytes)
	if largeBytes > 1.5*smallBytes {
		t.Errorf("Evaluate over 2000 segments allocates %.0f B, over 200 %.0f B: more than 1.5×", largeBytes, smallBytes)
	}
	if largeAllocs > 1.5*smallAllocs {
		t.Errorf("Evaluate over 2000 segments makes %.0f allocs, over 200 %.0f: more than 1.5×", largeAllocs, smallAllocs)
	}
}

func BenchmarkEvaluateStanding(b *testing.B) {
	c, err := ParseText(standingQuery)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{100, 1000} {
		snap := segmentedView(n)
		b.Run(fmt.Sprintf("segments=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.Evaluate(snap); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
