package server

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/obs/assure"
	"repro/internal/resource"
)

// installCommitment plants a committed reservation through the public
// two-phase path (Prepare + Commit), the same way a handoff source
// acquired it.
func installCommitment(tb testing.TB, l *Ledger, key, name, demand string) {
	tb.Helper()
	if err := l.Prepare(key, name, mustSet(tb, demand), 10, 20, 1000); err != nil {
		tb.Fatalf("prepare %s: %v", key, err)
	}
	if err := l.Commit(key); err != nil {
		tb.Fatalf("commit %s: %v", key, err)
	}
}

// TestImportedPromiseCarriesImportEpoch: a promise adopted on import is
// stamped with the epoch of the install that landed its commitment, not
// the epoch the receiver stood at before it.
func TestImportedPromiseCarriesImportEpoch(t *testing.T) {
	src := NewLedger(Config{Theta: cpuTheta(4, 100, "l1"), Owned: []resource.Location{"l1"}}, nil)
	installCommitment(t, src, "k1", "j1", "2:cpu@l1:(0,10)")
	promises := assure.New("")
	dst := NewLedger(Config{Owned: []resource.Location{}, Assure: promises}, nil)
	dst.AddOwned([]resource.Location{"l1"})
	if err := dst.ImportLocations(src.ExportLocations([]resource.Location{"l1"})); err != nil {
		t.Fatal(err)
	}
	p, ok := promises.Lookup("j1")
	if !ok || p.State != assure.StateActive {
		t.Fatalf("no active promise for j1 after the import: %+v", p)
	}
	if p.Epoch != dst.Epoch() {
		t.Fatalf("imported promise stamped epoch %d, the import landed at epoch %d", p.Epoch, dst.Epoch())
	}
}

func TestExportImportRoundTripMovesEverything(t *testing.T) {
	src := NewLedger(Config{Theta: cpuTheta(4, 100, "l1", "l2"), Owned: []resource.Location{"l1", "l2"}}, nil)
	installCommitment(t, src, "k1", "j1", "2:cpu@l1:(0,10)")
	installCommitment(t, src, "k2", "j2", "1:cpu@l1:(5,15),1:cpu@l2:(5,15)")
	if err := src.Prepare("k3", "j3", mustSet(t, "1:cpu@l1:(20,30)"), 30, 40, 500); err != nil {
		t.Fatal(err)
	}
	mustAudit(t, src)

	exports := src.ExportLocations([]resource.Location{"l1"})
	if len(exports) != 1 || exports[0].Loc != "l1" {
		t.Fatalf("exports = %+v", exports)
	}
	exp := exports[0]
	if len(exp.Commitments) != 2 || len(exp.Holds) != 1 {
		t.Fatalf("export carries %d commitments, %d holds", len(exp.Commitments), len(exp.Holds))
	}

	dst := NewLedger(Config{Owned: []resource.Location{}}, nil)
	dst.AddOwned([]resource.Location{"l1"})
	if err := dst.ImportLocations(exports); err != nil {
		t.Fatal(err)
	}
	src.DropLocations([]resource.Location{"l1"})
	mustAudit(t, src)
	mustAudit(t, dst)

	// j1 lived entirely on l1: gone from src, live on dst.
	if _, ok := src.Commitment("j1"); ok {
		t.Fatal("j1 survived the drop on the source")
	}
	if _, ok := dst.Commitment("j1"); !ok {
		t.Fatal("j1 missing on the new owner")
	}
	// j2 spanned l1+l2: split across both ledgers, demand partitioned.
	srcJ2, ok := src.Commitment("j2")
	if !ok || len(srcJ2.Locations) != 1 || srcJ2.Locations[0] != "l2" {
		t.Fatalf("source j2 = %+v", srcJ2)
	}
	dstJ2, ok := dst.Commitment("j2")
	if !ok || len(dstJ2.Locations) != 1 || dstJ2.Locations[0] != "l1" {
		t.Fatalf("dest j2 = %+v", dstJ2)
	}
	// The moved hold commits on the new owner under its original key.
	if err := dst.Commit("k3"); err != nil {
		t.Fatalf("committing moved hold: %v", err)
	}
	if _, ok := dst.Commitment("j3"); !ok {
		t.Fatal("j3 missing after committing the moved hold")
	}
	mustAudit(t, dst)

	// The source no longer owns l1.
	if err := src.Prepare("k9", "j9", mustSet(t, "1:cpu@l1:(0,5)"), 5, 9, 100); !errors.Is(err, ErrNotOwned) {
		t.Fatalf("prepare on dropped location: %v, want ErrNotOwned", err)
	}
}

func TestImportMergesSpanningJobSlices(t *testing.T) {
	// The receiver already holds j-span's slice on l2 under the same 2PC
	// key; importing l1's slice must merge, not duplicate.
	dst := NewLedger(Config{Theta: cpuTheta(4, 100, "l2"), Owned: []resource.Location{"l2"}}, nil)
	installCommitment(t, dst, "kspan", "j-span", "1:cpu@l2:(0,10)")

	src := NewLedger(Config{Theta: cpuTheta(4, 100, "l1"), Owned: []resource.Location{"l1"}}, nil)
	installCommitment(t, src, "kspan", "j-span", "1:cpu@l1:(0,10)")

	dst.AddOwned([]resource.Location{"l1"})
	if err := dst.ImportLocations(src.ExportLocations([]resource.Location{"l1"})); err != nil {
		t.Fatal(err)
	}
	src.DropLocations([]resource.Location{"l1"})
	mustAudit(t, dst)
	c, ok := dst.Commitment("j-span")
	if !ok {
		t.Fatal("merged commitment missing")
	}
	if len(c.Locations) != 2 {
		t.Fatalf("merged commitment spans %v, want both locations", c.Locations)
	}
	// One release returns both slices.
	if err := dst.Release("j-span"); err != nil {
		t.Fatal(err)
	}
	mustAudit(t, dst)
}

// A handoff can land between the coordinator's per-participant commits,
// so the two slices of one federated job meet on the receiver in
// different states. Either way they must end as one commitment covering
// both locations, with nothing left for the lease sweep to take.
func TestImportMidCommitKeepsBothSlices(t *testing.T) {
	for _, tc := range []struct {
		name                   string
		dstCommits, srcCommits bool
	}{
		{"source committed first", false, true},
		{"receiver committed first", true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dst := NewLedger(Config{Theta: cpuTheta(4, 100, "l2"), Owned: []resource.Location{"l2"}}, nil)
			src := NewLedger(Config{Theta: cpuTheta(4, 100, "l1"), Owned: []resource.Location{"l1"}}, nil)
			for _, p := range []struct {
				l      *Ledger
				demand string
				commit bool
			}{{dst, "1:cpu@l2:(0,10)", tc.dstCommits}, {src, "1:cpu@l1:(0,10)", tc.srcCommits}} {
				if err := p.l.Prepare("kspan", "j-span", mustSet(t, p.demand), 10, 20, 1000); err != nil {
					t.Fatal(err)
				}
				if p.commit {
					if err := p.l.Commit("kspan"); err != nil {
						t.Fatal(err)
					}
				}
			}

			dst.AddOwned([]resource.Location{"l1"})
			if err := dst.ImportLocations(src.ExportLocations([]resource.Location{"l1"})); err != nil {
				t.Fatal(err)
			}
			src.DropLocations([]resource.Location{"l1"})
			// The coordinator's remaining commit reaches the receiver
			// (directly, or by the old owner's redirect).
			if err := dst.Commit("kspan"); err != nil {
				t.Fatal(err)
			}
			mustAudit(t, dst)
			c, ok := dst.Commitment("j-span")
			if !ok || len(c.Locations) != 2 {
				t.Fatalf("commitment = %+v (found %v), want one spanning both locations", c, ok)
			}
			if got := dst.NumHolds(); got != 0 {
				t.Fatalf("%d holds left behind for the sweep", got)
			}
			if err := dst.Release("j-span"); err != nil {
				t.Fatal(err)
			}
			mustAudit(t, dst)
			free, _, err := dst.FreeView([]resource.Location{"l1", "l2"})
			if err != nil {
				t.Fatal(err)
			}
			if want := cpuTheta(4, 100, "l1", "l2"); !free.Equal(want) {
				t.Fatalf("free after release = %s, want all of %s", free.Compact(), want.Compact())
			}
		})
	}
}

// A committed two-phase key must survive a hand-off. The coordinator may
// still roll a partial commit back, and its Abort — sent to the old
// owner and, by its redirect, to the new one — has to find and release
// the slice on each side.
func TestAbortAfterCommitFollowsHandoff(t *testing.T) {
	for _, tc := range []struct{ name, demand string }{
		{"whole commitment moved", "1:cpu@l1:(0,10)"},
		{"one slice moved", "1:cpu@l1:(0,10),1:cpu@l2:(0,10)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := NewLedger(Config{Theta: cpuTheta(4, 100, "l1", "l2"), Owned: []resource.Location{"l1", "l2"}}, nil)
			dst := NewLedger(Config{Owned: []resource.Location{}}, nil)
			installCommitment(t, src, "k", "j", tc.demand)

			dst.AddOwned([]resource.Location{"l1"})
			if err := dst.ImportLocations(src.ExportLocations([]resource.Location{"l1"})); err != nil {
				t.Fatal(err)
			}
			src.DropLocations([]resource.Location{"l1"})
			for _, side := range []struct {
				l   *Ledger
				loc resource.Location
			}{{src, "l2"}, {dst, "l1"}} {
				if err := side.l.Abort("k"); err != nil {
					t.Fatalf("abort on the owner of %s: %v", side.loc, err)
				}
				mustAudit(t, side.l)
				if n := side.l.NumCommitments(); n != 0 {
					t.Fatalf("%d commitments left on the owner of %s", n, side.loc)
				}
				free, _, err := side.l.FreeView([]resource.Location{side.loc})
				if err != nil {
					t.Fatal(err)
				}
				if want := cpuTheta(4, 100, side.loc); !free.Equal(want) {
					t.Fatalf("free on %s after the abort = %s, want all of %s", side.loc, free.Compact(), want.Compact())
				}
			}
		})
	}
}

// TestImportRefusesOvercommit: an import that would break one shard's
// invariant installs nothing, not even the locations before it that fit.
func TestImportRefusesOvercommit(t *testing.T) {
	dst := NewLedger(Config{}, nil)
	exports := []LocationExport{{
		Loc:         "l0",
		Theta:       "2:cpu@l0:(0,10)",
		Commitments: []ExportCommitment{{Name: "fits", Demand: "1:cpu@l0:(0,10)", Finish: 10, Deadline: 20}},
	}, {
		Loc:   "l1",
		Theta: "1:cpu@l1:(0,10)",
		Commitments: []ExportCommitment{
			{Name: "too-big", Demand: "5:cpu@l1:(0,10)", Finish: 10, Deadline: 20},
		},
	}}
	if err := dst.ImportLocations(exports); err == nil {
		t.Fatal("import that breaks the shard invariant must fail")
	}
	mustAudit(t, dst)
	if n, e := dst.NumCommitments(), dst.Epoch(); n != 0 || e != 0 {
		t.Fatalf("refused import left %d commitments at epoch %d", n, e)
	}
}

func TestDropUnknownLocationIsHarmless(t *testing.T) {
	l := NewLedger(Config{Theta: cpuTheta(2, 100, "l1"), Owned: []resource.Location{"l1"}}, nil)
	l.DropLocations([]resource.Location{"ghost"})
	mustAudit(t, l)
}

// BenchmarkLedgerHandoff measures the full ownership-handoff round trip
// (export one loaded location, install it on a fresh owner, drop it
// from the source) at increasing ledger sizes — the hot cost of
// rebalancing under load (EXPERIMENTS.md E15, BENCH_PR7.json).
func BenchmarkLedgerHandoff(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("commitments=%d", n), func(b *testing.B) {
			src := NewLedger(Config{Theta: cpuTheta(int64(n)+8, 1<<30, "l1", "l2"), Owned: []resource.Location{"l1", "l2"}}, nil)
			for i := 0; i < n; i++ {
				installCommitment(b, src, fmt.Sprintf("k%d", i), fmt.Sprintf("j%d", i),
					fmt.Sprintf("1:cpu@l1:(%d,%d)", i, i+10))
			}
			exports := src.ExportLocations([]resource.Location{"l1"})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst := NewLedger(Config{Owned: []resource.Location{}}, nil)
				dst.AddOwned([]resource.Location{"l1"})
				if err := dst.ImportLocations(exports); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
