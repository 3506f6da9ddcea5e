package main

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"
)

// sameStreams reports whether two stream sets are byte-identical in
// everything the daemon sees and everything the checker expects.
func sameStreams(a, b [numClients][]op) bool {
	for c := range a {
		if len(a[c]) != len(b[c]) {
			return false
		}
		for i := range a[c] {
			x, y := &a[c][i], &b[c][i]
			if x.kind != y.kind || x.expect != y.expect || x.entry != y.entry || x.path != y.path ||
				!bytes.Equal(x.body, y.body) || !bytes.Equal(x.release, y.release) {
				return false
			}
		}
	}
	return true
}

func TestStreamsAreDeterministic(t *testing.T) {
	for _, sh := range daemonShapes(true) {
		a, err := sh.streams(7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sh.streams(7)
		if err != nil {
			t.Fatal(err)
		}
		if !sameStreams(a, b) {
			t.Errorf("%s: seed 7 generated two different streams", sh.name)
		}
		c, err := sh.streams(8)
		if err != nil {
			t.Fatal(err)
		}
		if sameStreams(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated the same stream", sh.name)
		}
	}
	j1, t1, err := simInput(7, true)
	if err != nil {
		t.Fatal(err)
	}
	j2, t2, _ := simInput(7, true)
	j3, _, _ := simInput(8, true)
	if !reflect.DeepEqual(j1, j2) || !reflect.DeepEqual(t1, t2) {
		t.Error("sim_batch: seed 7 generated two different inputs")
	}
	if reflect.DeepEqual(j1, j3) {
		t.Error("sim_batch: seeds 7 and 8 generated the same jobs")
	}
}

// The mix is fixed by position, not drawn: one admit in ten is hopeless
// on every workload and seed, and on cluster_span both the coordinated
// and the forwarded path see rejects.
func TestOperationMixIsFixed(t *testing.T) {
	for _, sh := range daemonShapes(true) {
		streams, err := sh.streams(3)
		if err != nil {
			t.Fatal(err)
		}
		admits, rejects, queries, falsy := 0, 0, 0, 0
		rejectedPaths := make(map[int]bool) // footprint owners of rejected jobs
		for c := range streams {
			for i := range streams[c] {
				o := &streams[c][i]
				if o.kind != opAdmit {
					queries++
					if !o.expect {
						falsy++
					}
					continue
				}
				admits++
				if !o.expect {
					rejects++
					owners := make(map[int]bool)
					for _, loc := range footprintOf(o.job) {
						owners[sh.ownerOf(loc)] = true
					}
					rejectedPaths[len(owners)] = true
				}
			}
		}
		if rejects*10 < admits-10 || rejects*10 > admits+10 {
			t.Errorf("%s: %d of %d admits hopeless, want one in ten", sh.name, rejects, admits)
		}
		if sh.queries {
			if all := admits + queries; queries*5 < 4*all-10 || queries*5 > 4*all+10 {
				t.Errorf("%s: %d queries of %d operations, want 80%%", sh.name, queries, admits+queries)
			}
			if falsy == 0 || falsy*4 > queries {
				t.Errorf("%s: %d of %d queries false by construction, want about one in ten", sh.name, falsy, queries)
			}
		} else if queries != 0 {
			t.Errorf("%s: %d queries in an admit-only workload", sh.name, queries)
		}
		if sh.nodes > 1 && !(rejectedPaths[1] && rejectedPaths[2]) {
			t.Errorf("%s: rejects cover footprints %v, want both one-owner (forwarded) and two-owner (coordinated)", sh.name, rejectedPaths)
		}
	}
}

// Hopeless and comfortable labels agree with the internal/core
// reference — admission.Rota over a core.State carrying the residents —
// on the sample the benchmark checks at every set-up.
func TestLabelsAgreeWithCoreReference(t *testing.T) {
	for _, sh := range daemonShapes(true) {
		streams, err := sh.streams(11)
		if err != nil {
			t.Fatal(err)
		}
		residents, err := sh.residentJobs()
		if err != nil {
			t.Fatal(err)
		}
		if err := checkLabels(sh, residents, streams); err != nil {
			t.Errorf("%s: %v", sh.name, err)
		}
		// A flipped label must be caught.
		for i := range streams[0] {
			if streams[0][i].kind == opAdmit {
				streams[0][i].expect = !streams[0][i].expect
				break
			}
		}
		if err := checkLabels(sh, residents, streams); err == nil {
			t.Errorf("%s: a flipped label passed the reference check", sh.name)
		}
	}
}

// Nothing in a request tells the daemon which workload it belongs to.
func TestStreamHidesTheWorkload(t *testing.T) {
	tells := append(workloadNames(), "bench", "smoke", "hopeless", "comfortable", "light", "loaded", "span")
	for _, sh := range daemonShapes(true) {
		streams, err := sh.streams(5)
		if err != nil {
			t.Fatal(err)
		}
		for c := range streams {
			for i := range streams[c] {
				o := &streams[c][i]
				wire := string(o.body) + " " + o.path + " " + string(o.release)
				for _, tell := range tells {
					if strings.Contains(wire, tell) {
						t.Fatalf("%s: request %d of client %d contains %q: %s", sh.name, i, c, tell, wire)
					}
				}
			}
		}
	}
}

func TestPercentileRefusesTooFewSamples(t *testing.T) {
	vals := make([]float64, 999)
	for i := range vals {
		vals[i] = float64(i)
	}
	if _, err := percentile(vals, 0.99); err == nil {
		t.Error("p99 of 999 samples was reported; fewer than ten samples lie beyond it")
	}
	if v, err := percentile(append(vals, 999), 0.99); err != nil || v < 989 || v > 990 {
		t.Errorf("p99 of 0..999 = %v, %v; want about 989", v, err)
	}
	if _, err := percentile(vals[:19], 0.5); err == nil {
		t.Error("p50 of 19 samples was reported")
	}
	if _, _, err := slicedTail([][]float64{vals[:400], vals[400:]}, 0.99); err == nil {
		t.Error("sliced p99 of 999 samples was reported")
	}
	// Two clients' 2000 samples hold two parts of 1000, not five of 400:
	// the first halves of both pooled (p99 ≈ 495), then the second halves
	// (p99 ≈ 995), and the median of the two.
	client := append(append([]float64(nil), vals...), 999)
	if v, n, err := slicedTail([][]float64{client, client}, 0.99); err != nil || n != 2000 || v < 740 || v > 750 {
		t.Errorf("sliced p99 of two clients' 0..999: %v, n=%d err=%v; want about 745", v, n, err)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}

// A stack whose children outweigh their parent is reported, naming the
// rung.
func TestStackedBreakdownCheck(t *testing.T) {
	tr := newTracer()
	for i := 0; i < 2*minBeyond; i++ {
		tr.begin("admit")
		root := tr.add("root", 0, 100*time.Microsecond)
		mid := tr.add("mid", root, 60*time.Microsecond)
		tr.add("leaf", mid, 90*time.Microsecond)
	}
	st, err := buildStack(tr.spans, "admit", false)
	if err != nil {
		t.Fatal(err)
	}
	if self := st.byName["root"].self; self != 40 || st.unattributed != 30 {
		t.Errorf("self(root)=%v unattributed=%v, want 40 and 30 µs", self, st.unattributed)
	}
	if err := st.check(); err == nil || !strings.Contains(err.Error(), "mid") {
		t.Errorf("check() = %v, want a failure naming rung mid", err)
	}
}
