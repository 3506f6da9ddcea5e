package server

import (
	"errors"
	"testing"

	"repro/internal/resource"
)

func mustSet(tb testing.TB, text string) resource.Set {
	tb.Helper()
	s, err := resource.ParseSet(text)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

func TestPrepareCommitLifecycle(t *testing.T) {
	l := NewLedger(Config{Theta: cpuTheta(2, 100, "l1", "l2")}, nil)
	demand := mustSet(t, "2:cpu@l1:(0,10)")
	if err := l.Prepare("k1", "j1", demand, 10, 20, 50); err != nil {
		t.Fatal(err)
	}
	if got := l.NumHolds(); got != 1 {
		t.Fatalf("NumHolds = %d, want 1", got)
	}
	mustAudit(t, l) // leased holds must be dominated by Θ too
	if err := l.Commit("k1"); err != nil {
		t.Fatal(err)
	}
	if got := l.NumHolds(); got != 0 {
		t.Fatalf("NumHolds after commit = %d, want 0", got)
	}
	if got := l.NumCommitments(); got != 1 {
		t.Fatalf("NumCommitments = %d, want 1", got)
	}
	// Commit is idempotent on its key.
	if err := l.Commit("k1"); err != nil {
		t.Fatalf("idempotent commit: %v", err)
	}
	if got := l.NumCommitments(); got != 1 {
		t.Fatalf("idempotent commit duplicated: %d commitments", got)
	}
	mustAudit(t, l)
	if err := l.Release("j1"); err != nil {
		t.Fatal(err)
	}
	mustAudit(t, l)
	c := l.TwoPhase()
	if c.Prepares != 1 || c.Commits != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestPrepareIdempotencyAndDuplicates(t *testing.T) {
	l := NewLedger(Config{Theta: cpuTheta(2, 100, "l1")}, nil)
	demand := mustSet(t, "2:cpu@l1:(0,10)") // fills the shard over (0,10)
	if err := l.Prepare("k1", "j1", demand, 10, 20, 50); err != nil {
		t.Fatal(err)
	}
	// Retrying the same key must not double-reserve.
	if err := l.Prepare("k1", "j1", demand, 10, 20, 50); err != nil {
		t.Fatalf("retried prepare: %v", err)
	}
	if got := l.NumHolds(); got != 1 {
		t.Fatalf("NumHolds = %d, want 1", got)
	}
	mustAudit(t, l)
	// A different key wanting the same capacity is a capacity rejection.
	if err := l.Prepare("k2", "j2", demand, 10, 20, 50); !errors.Is(err, ErrOvercommit) {
		t.Fatalf("overcommitting prepare: %v, want ErrOvercommit", err)
	}
	// A different key re-using the held name is a duplicate.
	later := mustSet(t, "1:cpu@l1:(20,30)")
	if err := l.Prepare("k3", "j1", later, 30, 40, 50); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("name-stealing prepare: %v, want ErrDuplicate", err)
	}
	// Re-preparing a committed key also succeeds without reserving again.
	if err := l.Commit("k1"); err != nil {
		t.Fatal(err)
	}
	if err := l.Prepare("k1", "j1", demand, 10, 20, 50); err != nil {
		t.Fatalf("prepare after commit: %v", err)
	}
	if got := l.NumHolds(); got != 0 {
		t.Fatalf("NumHolds = %d, want 0 (no hold recreated after commit)", got)
	}
	mustAudit(t, l)
}

func TestPrepareRejectionsLeaveLedgerUntouched(t *testing.T) {
	l := NewLedger(Config{Theta: cpuTheta(2, 100, "l1", "l2")}, nil)
	before, _, err := l.FreeView([]resource.Location{"l1", "l2"})
	if err != nil {
		t.Fatal(err)
	}
	// Demands more than Θ offers on l1.
	demand := mustSet(t, "3:cpu@l1:(0,10)")
	if err := l.Prepare("k1", "j1", demand, 10, 20, 50); !errors.Is(err, ErrOvercommit) {
		t.Fatalf("err = %v, want ErrOvercommit", err)
	}
	// Expiry not in the future.
	ok := mustSet(t, "1:cpu@l1:(0,10)")
	if err := l.Prepare("k2", "j2", ok, 10, 20, 0); !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("err = %v, want ErrLeaseExpired", err)
	}
	after, _, err := l.FreeView([]resource.Location{"l1", "l2"})
	if err != nil {
		t.Fatal(err)
	}
	if before.Compact() != after.Compact() {
		t.Fatalf("rejected prepares changed the free view: %s -> %s", before.Compact(), after.Compact())
	}
	if got := l.NumHolds(); got != 0 {
		t.Fatalf("NumHolds = %d, want 0", got)
	}
	mustAudit(t, l)
}

func TestPrepareNotOwned(t *testing.T) {
	l := NewLedger(Config{Theta: cpuTheta(2, 100, "l1", "l2"), Owned: []resource.Location{"l1"}}, nil)
	demand := mustSet(t, "1:cpu@l2:(0,10)")
	if err := l.Prepare("k1", "j1", demand, 10, 20, 50); !errors.Is(err, ErrNotOwned) {
		t.Fatalf("err = %v, want ErrNotOwned", err)
	}
	if got := l.TwoPhase().NotOwnedRejects; got != 1 {
		t.Fatalf("NotOwnedRejects = %d, want 1", got)
	}
	if _, _, err := l.FreeView([]resource.Location{"l2"}); !errors.Is(err, ErrNotOwned) {
		t.Fatalf("free view of unowned location: %v, want ErrNotOwned", err)
	}
}

// Availability offered for a location this node does not own is refused
// whole: the owned location named beside it gains nothing, and no
// phantom shard is left behind for a later import to merge into the real
// owner's θ.
func TestAcquireNotOwned(t *testing.T) {
	l := NewLedger(Config{Theta: cpuTheta(2, 100, "l1"), Owned: []resource.Location{"l1"}}, nil)
	before, _, err := l.FreeView([]resource.Location{"l1"})
	if err != nil {
		t.Fatal(err)
	}
	epoch := l.Epoch()

	err = l.Acquire(mustSet(t, "1:cpu@l1:(0,10),1:cpu@l2:(0,10)"))
	if !errors.Is(err, ErrNotOwned) {
		t.Fatalf("acquire naming unowned l2: err = %v, want ErrNotOwned", err)
	}
	after, _, err := l.FreeView([]resource.Location{"l1"})
	if err != nil {
		t.Fatal(err)
	}
	if !after.Equal(before) {
		t.Errorf("refused acquire still changed l1: free %s, was %s", after.Compact(), before.Compact())
	}
	if got := l.NumShards(); got != 1 {
		t.Errorf("shards = %d after a refused acquire, want 1 (no phantom l2)", got)
	}
	if got := l.Epoch(); got != epoch {
		t.Errorf("epoch moved %d -> %d on a refused acquire", epoch, got)
	}
	if got := l.TwoPhase().NotOwnedRejects; got != 1 {
		t.Errorf("NotOwnedRejects = %d, want 1", got)
	}

	if err := l.Acquire(mustSet(t, "1:cpu@l1:(0,10)")); err != nil {
		t.Fatalf("acquire on the owned location: %v", err)
	}
	mustAudit(t, l)
}

func TestLeaseExpirySweep(t *testing.T) {
	l := NewLedger(Config{Theta: cpuTheta(2, 100, "l1")}, nil)
	demand := mustSet(t, "2:cpu@l1:(0,50)")
	if err := l.Prepare("k1", "j1", demand, 50, 60, 10); err != nil {
		t.Fatal(err)
	}
	// Before expiry the hold pins its capacity.
	if _, err := l.Advance(5); err != nil {
		t.Fatal(err)
	}
	if got := l.NumHolds(); got != 1 {
		t.Fatalf("NumHolds at t=5 = %d, want 1", got)
	}
	if err := l.Prepare("k2", "j2", mustSet(t, "2:cpu@l1:(6,20)"), 20, 30, 40); !errors.Is(err, ErrOvercommit) {
		t.Fatalf("held capacity should reject new prepare, got %v", err)
	}
	mustAudit(t, l)
	// Past expiry the sweep reclaims it.
	if _, err := l.Advance(11); err != nil {
		t.Fatal(err)
	}
	if got := l.NumHolds(); got != 0 {
		t.Fatalf("NumHolds after sweep = %d, want 0", got)
	}
	if got := l.TwoPhase().LeasesExpired; got != 1 {
		t.Fatalf("LeasesExpired = %d, want 1", got)
	}
	mustAudit(t, l)
	// The reclaimed capacity is usable again.
	if err := l.Prepare("k3", "j3", mustSet(t, "2:cpu@l1:(12,20)"), 20, 30, 40); err != nil {
		t.Fatalf("prepare after sweep: %v", err)
	}
	mustAudit(t, l)
	// The swept key is gone: commit finds nothing.
	if err := l.Commit("k1"); !errors.Is(err, ErrUnknownHold) {
		t.Fatalf("commit of swept key: %v, want ErrUnknownHold", err)
	}
}

func TestAbortReleasesHoldAndRollsBackCommit(t *testing.T) {
	l := NewLedger(Config{Theta: cpuTheta(2, 100, "l1")}, nil)
	demand := mustSet(t, "2:cpu@l1:(0,10)")
	if err := l.Prepare("k1", "j1", demand, 10, 20, 50); err != nil {
		t.Fatal(err)
	}
	if err := l.Abort("k1"); err != nil {
		t.Fatal(err)
	}
	if got := l.NumHolds(); got != 0 {
		t.Fatalf("NumHolds after abort = %d, want 0", got)
	}
	// Abort is idempotent, and unknown keys are a no-op success.
	if err := l.Abort("k1"); err != nil {
		t.Fatal(err)
	}
	if err := l.Abort("never-prepared"); err != nil {
		t.Fatal(err)
	}
	// The capacity is free again.
	if err := l.Prepare("k2", "j2", demand, 10, 20, 50); err != nil {
		t.Fatal(err)
	}
	// Abort after commit rolls the commitment back — how a coordinator
	// undoes a partial commit.
	if err := l.Commit("k2"); err != nil {
		t.Fatal(err)
	}
	if err := l.Abort("k2"); err != nil {
		t.Fatal(err)
	}
	if got := l.NumCommitments(); got != 0 {
		t.Fatalf("NumCommitments after rollback = %d, want 0", got)
	}
	mustAudit(t, l)
}

func TestSnapshotListsHolds(t *testing.T) {
	l := NewLedger(Config{Theta: cpuTheta(4, 100, "l1")}, nil)
	if err := l.Prepare("kb", "jb", mustSet(t, "1:cpu@l1:(0,10)"), 10, 20, 30); err != nil {
		t.Fatal(err)
	}
	if err := l.Prepare("ka", "ja", mustSet(t, "1:cpu@l1:(0,10)"), 10, 20, 30); err != nil {
		t.Fatal(err)
	}
	snap := l.Snapshot()
	if len(snap.Holds) != 2 || snap.Holds[0].Key != "ka" || snap.Holds[1].Key != "kb" {
		t.Fatalf("snapshot holds = %+v, want ka then kb", snap.Holds)
	}
}
