package server

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/resource"
	"repro/internal/workload"
)

// admitLoadedBodies returns the wire bodies of n jobs shaped as the
// benchmark's admit_loaded workload makes them: workload.Generate over
// l1..l4, 2–3 actors × 2–4 steps with sends and migrates, about 1 KB
// each.
func admitLoadedBodies(tb testing.TB, n int) [][]byte {
	tb.Helper()
	jobs, err := workload.Generate(workload.Config{
		Seed:             1,
		Locations:        []resource.Location{"l1", "l2", "l3", "l4"},
		NumJobs:          n,
		MeanInterarrival: 4096 / float64(n),
		ActorsMin:        2,
		ActorsMax:        3,
		StepsMin:         2,
		StepsMax:         4,
		SendProb:         0.2,
		MigrateProb:      0.05,
		EvalWeightMax:    3,
		SlackFactor:      3,
	})
	if err != nil {
		tb.Fatal(err)
	}
	bodies := make([][]byte, n)
	for i, j := range jobs {
		if bodies[i], err = json.Marshal(j); err != nil {
			tb.Fatal(err)
		}
	}
	return bodies
}

// BenchmarkDecodeAdmitRequest decodes and validates admit_loaded-shaped
// bodies, one per op.
func BenchmarkDecodeAdmitRequest(b *testing.B) {
	bodies := admitLoadedBodies(b, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeAdmitRequest(bodies[i%len(bodies)]); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDecodeAdmitRequestAllocs holds the decode of an admit_loaded body
// to its allocation budget: the job's own strings, slices and maps, not
// a reflection walk's scratch.
func TestDecodeAdmitRequestAllocs(t *testing.T) {
	const budget = 32
	bodies := admitLoadedBodies(t, 64)
	perRun := testing.AllocsPerRun(20, func() {
		for _, body := range bodies {
			if _, err := DecodeAdmitRequest(body); err != nil {
				t.Fatal(err)
			}
		}
	})
	if perDecode := perRun / float64(len(bodies)); perDecode > budget {
		t.Fatalf("DecodeAdmitRequest allocates %.1f per admit_loaded body, want ≤ %d", perDecode, budget)
	}
}

// TestDecodeAdmitRequestMatchesEncodingJSON decodes every generated body
// both ways: the jobs must be equal.
func TestDecodeAdmitRequestMatchesEncodingJSON(t *testing.T) {
	var buf []byte
	for _, body := range admitLoadedBodies(t, 64) {
		if _, err := assertDecodeMatchesOracle(t, &buf, body); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDecodeAdmitRequestNestingLimit holds the decoder to encoding/json's
// nesting limit of 10 000 levels, on both sides of it, inside a skipped
// value.
func TestDecodeAdmitRequestNestingLimit(t *testing.T) {
	var buf []byte
	for _, c := range []struct {
		arrays int // nested inside the top-level object
		ok     bool
	}{{9999, true}, {10000, false}} {
		body := `{"x":` + strings.Repeat("[", c.arrays) + strings.Repeat("]", c.arrays) +
			`,"Dist":{"Name":"j","Deadline":8,"Actors":[{"Actor":"a","Steps":[{"Action":{"Op":2,"Actor":"a","Loc":"l1"}}]}]}}`
		if _, err := assertDecodeMatchesOracle(t, &buf, []byte(body)); (err == nil) != c.ok {
			t.Fatalf("%d nested arrays: error %v, want ok=%v", c.arrays, err, c.ok)
		}
	}
}
