package query

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/interval"
	"repro/internal/resource"
)

// standingQuery is the shape of a standing subscription: a modal holds
// atom over a long window, decided by one read at its last tick.
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
	return Snapshot{Free: free}
}

// evaluateFootprint returns the mallocs and bytes one Evaluate of the
// compiled query over the snapshot costs: the least of several single
// evaluations, so a collection or a background allocation landing in
// one of them does not count.
func evaluateFootprint(t *testing.T, c *Compiled, snap Snapshot) (allocs, bytes float64) {
	t.Helper()
	var before, after runtime.MemStats
	allocs, bytes = math.Inf(1), math.Inf(1)
	for i := 0; i < 16; i++ {
		runtime.ReadMemStats(&before)
		if _, err := c.Evaluate(snap); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		allocs = min(allocs, float64(after.Mallocs-before.Mallocs))
		bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc))
	}
	return allocs, bytes
}

// TestEvaluateCostIndependentOfViewSize: a holds atom reads one
// quantity, so a standing query over a view ten times as fragmented
// must not allocate in proportion to it.
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

// TestEvaluateAllocatesLittle: a modal query is decided on a one-state
// path, so one evaluation allocates its formula, its read and its
// answer, not a path that grows with the window.
func TestEvaluateAllocatesLittle(t *testing.T) {
	c := mustParse(t, standingQuery)
	_, bytes := evaluateFootprint(t, c, segmentedView(200))
	t.Logf("%s: %.0f B per evaluation", standingQuery, bytes)
	if bytes >= 2048 {
		t.Errorf("one evaluation of %s allocates %.0f B, want < 2 KB", standingQuery, bytes)
	}
}

// TestEvaluateConcurrentSnapshots is the -race check on evaluation:
// goroutines evaluating one compiled query against different snapshots
// each get the verdict a serial evaluation of their own snapshot gives.
func TestEvaluateConcurrentSnapshots(t *testing.T) {
	c := mustParse(t, "holds(l1, cpu>=3, always)")
	const workers = 8
	snaps := make([]Snapshot, workers)
	want := make([]bool, workers)
	for g := range snaps {
		snaps[g] = snapshot(int64(g))
		snaps[g].Now = interval.Time(g * 10)
		res, err := c.Evaluate(snaps[g])
		if err != nil {
			t.Fatal(err)
		}
		want[g] = res.Holds
		if want[g] != (g >= 3) {
			t.Fatalf("serial verdict over %d units = %v, want %v", g, want[g], g >= 3)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				res, err := c.Evaluate(snaps[g])
				if err != nil {
					t.Error(err)
					return
				}
				if res.Holds != want[g] {
					t.Errorf("worker %d, run %d: holds = %v, serial verdict %v", g, i, res.Holds, want[g])
					return
				}
			}
		}(g)
	}
	wg.Wait()
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
