package server

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/admission"
	"repro/internal/compute"
	"repro/internal/cost"
	"repro/internal/interval"
	"repro/internal/obs/assure"
	"repro/internal/resource"
	"repro/internal/workload"
)

func u(n int64) resource.Rate { return resource.FromUnits(n) }

// cpuJob builds a one-actor job evaluating at loc (8 cpu under the paper
// cost model) with window (start, deadline).
func cpuJob(tb testing.TB, name string, loc resource.Location, start, deadline interval.Time) workload.Job {
	tb.Helper()
	actor := compute.ActorName(name + ".a")
	c, err := cost.Realize(cost.Paper(), actor, compute.Evaluate(actor, loc, 1))
	if err != nil {
		tb.Fatal(err)
	}
	d, err := compute.NewDistributed(name, start, deadline, c)
	if err != nil {
		tb.Fatal(err)
	}
	return workload.Job{Dist: d, Arrival: start}
}

// sendJob builds a job whose actor computes at src then sends to dst,
// touching two shards (cpu@src and network@src>dst).
func sendJob(tb testing.TB, name string, src, dst resource.Location, start, deadline interval.Time) workload.Job {
	tb.Helper()
	actor := compute.ActorName(name + ".a")
	c, err := cost.Realize(cost.Paper(), actor,
		compute.Evaluate(actor, src, 1),
		compute.Send(actor, src, "peer", dst, 1),
	)
	if err != nil {
		tb.Fatal(err)
	}
	d, err := compute.NewDistributed(name, start, deadline, c)
	if err != nil {
		tb.Fatal(err)
	}
	return workload.Job{Dist: d, Arrival: start}
}

func cpuTheta(rate int64, horizon interval.Time, locs ...resource.Location) resource.Set {
	var s resource.Set
	for _, loc := range locs {
		s.Add(resource.NewTerm(u(rate), resource.CPUAt(loc), interval.New(0, horizon)))
	}
	return s
}

func mustAudit(tb testing.TB, l *Ledger) {
	tb.Helper()
	if err := l.Audit(); err != nil {
		tb.Fatal(err)
	}
}

func TestLedgerShardsByLocation(t *testing.T) {
	theta := cpuTheta(2, 100, "l1", "l2", "l3")
	theta.Add(resource.NewTerm(u(1), resource.Link("l1", "l2"), interval.New(0, 100)))
	l := NewLedger(Config{Theta: theta}, nil)
	if got := l.NumShards(); got != 3 {
		t.Fatalf("NumShards = %d, want 3 (link l1>l2 belongs to shard l1)", got)
	}
	snap := l.Snapshot()
	if len(snap.Shards) != 3 {
		t.Fatalf("snapshot shards = %d", len(snap.Shards))
	}
	if snap.Shards[0].Location != "l1" || snap.Shards[0].ThetaTerms != 2 {
		t.Errorf("shard l1 = %+v, want cpu and link terms", snap.Shards[0])
	}
}

func TestAdmitReservesReleaseFrees(t *testing.T) {
	l := NewLedger(Config{Theta: cpuTheta(1, 16, "l1")}, nil) // 16 cpu units total
	policy := &admission.Rota{}

	dec, err := l.Admit(policy, cpuJob(t, "j1", "l1", 0, 16))
	if err != nil || !dec.Admit {
		t.Fatalf("j1: %v %+v", err, dec)
	}
	mustAudit(t, l)
	if n := l.NumCommitments(); n != 1 {
		t.Fatalf("commitments = %d", n)
	}

	// 8 of 16 units are reserved; a second 8-cpu job with the full
	// window still fits, a third cannot.
	if dec, err = l.Admit(policy, cpuJob(t, "j2", "l1", 0, 16)); err != nil || !dec.Admit {
		t.Fatalf("j2: %v %+v", err, dec)
	}
	if dec, err = l.Admit(policy, cpuJob(t, "j3", "l1", 0, 16)); err != nil || dec.Admit {
		t.Fatalf("j3 should be rejected: %v %+v", err, dec)
	}
	mustAudit(t, l)

	// Releasing j1 frees its reservation; j3 now fits.
	if err := l.Release("j1"); err != nil {
		t.Fatal(err)
	}
	mustAudit(t, l)
	if dec, err = l.Admit(policy, cpuJob(t, "j3", "l1", 0, 16)); err != nil || !dec.Admit {
		t.Fatalf("j3 after release: %v %+v", err, dec)
	}
	mustAudit(t, l)

	if err := l.Release("nope"); err == nil {
		t.Fatal("released an unknown commitment")
	}
}

func TestAdmitDuplicateName(t *testing.T) {
	l := NewLedger(Config{Theta: cpuTheta(4, 64, "l1")}, nil)
	policy := &admission.Rota{}
	if _, err := l.Admit(policy, cpuJob(t, "dup", "l1", 0, 64)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Admit(policy, cpuJob(t, "dup", "l1", 0, 64)); err == nil {
		t.Fatal("second admit of the same name succeeded")
	}
}

func TestAdmitPastDeadline(t *testing.T) {
	l := NewLedger(Config{Theta: cpuTheta(4, 64, "l1"), Now: 10}, nil)
	dec, err := l.Admit(&admission.Rota{}, cpuJob(t, "late", "l1", 0, 10))
	if err != nil || dec.Admit {
		t.Fatalf("deadline-passed job admitted: %v %+v", err, dec)
	}
}

func TestMultiShardAdmission(t *testing.T) {
	theta := cpuTheta(2, 32, "l1", "l2")
	theta.Add(resource.NewTerm(u(1), resource.Link("l1", "l2"), interval.New(0, 32)))
	l := NewLedger(Config{Theta: theta}, nil)
	dec, err := l.Admit(&admission.Rota{}, sendJob(t, "cross", "l1", "l2", 0, 32))
	if err != nil || !dec.Admit {
		t.Fatalf("cross-shard job: %v %+v", err, dec)
	}
	mustAudit(t, l)
	info, ok := l.Commitment("cross")
	if !ok {
		t.Fatal("commitment missing")
	}
	if len(info.Locations) != 1 || info.Locations[0] != "l1" {
		// evaluate@l1 + send l1→l2 both charge shard l1 (cpu@l1,
		// network@l1>l2): one-shard footprint by construction.
		t.Errorf("footprint = %v", info.Locations)
	}
}

func TestAdvanceExpiresAndCompletes(t *testing.T) {
	l := NewLedger(Config{Theta: cpuTheta(2, 32, "l1")}, nil)
	policy := &admission.Rota{}
	dec, err := l.Admit(policy, cpuJob(t, "j1", "l1", 0, 8))
	if err != nil || !dec.Admit {
		t.Fatalf("%v %+v", err, dec)
	}
	finish := dec.Plan.Finish // 8 cpu at rate 2 → finishes at t=4

	if _, err := l.Advance(finish - 1); err != nil {
		t.Fatal(err)
	}
	if n := l.NumCommitments(); n != 1 {
		t.Fatalf("commitment completed early (n=%d)", n)
	}
	mustAudit(t, l)

	done, err := l.Advance(finish)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 1 || done[0] != "j1" {
		t.Fatalf("completed = %v", done)
	}
	if n := l.NumCommitments(); n != 0 {
		t.Fatalf("commitments = %d after completion", n)
	}
	mustAudit(t, l)

	if _, err := l.Advance(finish - 2); err == nil {
		t.Fatal("clock moved backward")
	}
}

func TestAcquireOpensCapacity(t *testing.T) {
	l := NewLedger(Config{}, nil)
	policy := &admission.Rota{}
	if dec, err := l.Admit(policy, cpuJob(t, "j1", "l1", 0, 8)); err != nil || dec.Admit {
		t.Fatalf("admitted on an empty ledger: %v %+v", err, dec)
	}
	l.Acquire(cpuTheta(2, 8, "l1"))
	if dec, err := l.Admit(policy, cpuJob(t, "j1", "l1", 0, 8)); err != nil || !dec.Admit {
		t.Fatalf("after acquire: %v %+v", err, dec)
	}
	mustAudit(t, l)
}

// TestLedgerNoOvercommitUnderRace fires ≥100 concurrent admit/release
// pairs at the ledger (run under -race) and then audits every shard: the
// sum of reserved plans must never exceed Θ. The op stream stays dense
// under the race — every epoch from 1 to Epoch() numbers exactly one op
// — and every admitted job's promise carries its own reserve op's epoch.
func TestLedgerNoOvercommitUnderRace(t *testing.T) {
	locs := []resource.Location{"l1", "l2", "l3", "l4"}
	theta := cpuTheta(3, 512, locs...)
	for _, src := range locs {
		for _, dst := range locs {
			if src != dst {
				theta.Add(resource.NewTerm(u(1), resource.Link(src, dst), interval.New(0, 512)))
			}
		}
	}
	var opMu sync.Mutex
	opsAt := map[uint64]int{}         // epoch -> ops numbered with it
	reservedAt := map[string]uint64{} // job -> its reserve op's epoch
	promises := assure.New("")
	l := NewLedger(Config{Theta: theta, Assure: promises}, func(e uint64, o op) {
		opMu.Lock()
		defer opMu.Unlock()
		opsAt[e]++
		if o.kind == opReserve {
			reservedAt[o.rec.name] = e
		}
	})
	policy := &admission.Rota{}

	const workers = 16
	const perWorker = 8 // 128 admits, each followed by a release attempt
	var wg sync.WaitGroup
	var admitted, rejected, releaseFail int
	var admittedNames []string
	var mu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				name := fmt.Sprintf("w%d-j%d", w, i)
				src := locs[rng.Intn(len(locs))]
				dst := locs[(rng.Intn(len(locs)-1)+1+indexOf(locs, src))%len(locs)]
				var job workload.Job
				if rng.Intn(2) == 0 {
					job = cpuJob(t, name, src, 0, 512)
				} else {
					job = sendJob(t, name, src, dst, 0, 512)
				}
				dec, err := l.Admit(policy, job)
				if err != nil {
					t.Errorf("%s: %v", name, err)
					continue
				}
				mu.Lock()
				if dec.Admit {
					admitted++
					admittedNames = append(admittedNames, name)
				} else {
					rejected++
				}
				mu.Unlock()
				// Release roughly half of what we admit, concurrently
				// with other workers' admissions.
				if dec.Admit && rng.Intn(2) == 0 {
					if err := l.Release(name); err != nil {
						mu.Lock()
						releaseFail++
						mu.Unlock()
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if admitted+rejected != workers*perWorker {
		t.Fatalf("accounting off: %d+%d != %d", admitted, rejected, workers*perWorker)
	}
	if releaseFail > 0 {
		t.Fatalf("%d releases of admitted jobs failed", releaseFail)
	}
	if admitted == 0 {
		t.Fatal("nothing admitted; the race test exercised nothing")
	}
	mustAudit(t, l)

	n := l.Epoch()
	if uint64(len(opsAt)) != n {
		t.Fatalf("%d distinct epochs numbered ops, Epoch() = %d", len(opsAt), n)
	}
	for e := uint64(1); e <= n; e++ {
		if opsAt[e] != 1 {
			t.Fatalf("epoch %d numbers %d ops, want 1", e, opsAt[e])
		}
	}
	for _, name := range admittedNames {
		p, ok := promises.Lookup(name)
		if !ok || p.Epoch != reservedAt[name] {
			t.Fatalf("%s: promise stamped epoch %d, its reserve op took epoch %d (found %v)", name, p.Epoch, reservedAt[name], ok)
		}
	}
}

func indexOf(locs []resource.Location, loc resource.Location) int {
	for i, l := range locs {
		if l == loc {
			return i
		}
	}
	return 0
}

// TestOpReasonsAndFootprints pins what each mutation hands the
// standing-query manager — the epoch reason /v1/watch reports, the
// shards it wrote (nil wakes every query) and the job it touched — so
// the op alphabet keeps the bumps the mutations made before it.
func TestOpReasonsAndFootprints(t *testing.T) {
	var got []string
	notify := func(e uint64, o op) {
		got = append(got, fmt.Sprintf("%d %s %v %s", e, o.reason(), o.locs, o.rec.name))
	}
	l := NewLedger(Config{Theta: cpuTheta(4, 100, "l1", "l2"), Owned: []resource.Location{"l1", "l2"}}, notify)
	if dec, err := l.Admit(&admission.Rota{}, cpuJob(t, "j1", "l1", 0, 50)); err != nil || !dec.Admit {
		t.Fatalf("admit: %v %+v", err, dec)
	}
	steps := []error{
		l.Release("j1"),
		l.Prepare("k2", "j2", mustSet(t, "1:cpu@l2:(0,10)"), 10, 20, 50),
		l.Prepare("k3", "j3", mustSet(t, "1:cpu@l2:(0,10)"), 10, 20, 50),
		l.Commit("k2"),
		l.Abort("k2"), // a commitment rolled back
		l.Abort("k3"),
		l.Acquire(cpuTheta(1, 100, "l2")),
	}
	if _, err := l.Advance(5); err != nil {
		steps = append(steps, err)
	}
	dst := NewLedger(Config{Owned: []resource.Location{}}, notify)
	steps = append(steps, dst.ImportLocations(l.ExportLocations([]resource.Location{"l2"})))
	l.DropLocations([]resource.Location{"l2"})
	for i, err := range steps {
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	want := []string{
		"1 reserve [l1] j1", "2 release [l1] j1",
		"3 prepare [l2] j2", "4 prepare [l2] j3", "5 commit [l2] j2",
		"6 release [l2] j2", "7 abort [l2] j3", "8 acquire [l2] ",
		"9 advance [] ", "1 handoff [] ", "10 handoff [] ",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("ops reported\n  %s\nwant\n  %s", strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}
