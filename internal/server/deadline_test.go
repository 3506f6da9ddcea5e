package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/obs/assure"
)

// pastDeadline is a context whose deadline has passed but whose timer
// has not fired: Err() is nil, Deadline() is behind the clock. It is the
// moment between a deadline and the cancellation that follows it.
type pastDeadline struct {
	context.Context
	at time.Time
}

func (c pastDeadline) Deadline() (time.Time, bool) { return c.at, true }

func TestExpired(t *testing.T) {
	if err := Expired(context.Background()); err != nil {
		t.Errorf("open context: %v", err)
	}
	late := pastDeadline{context.Background(), time.Now().Add(-time.Millisecond)}
	if late.Err() != nil {
		t.Fatal("the probe context must not be done")
	}
	if err := Expired(late); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("deadline passed, Err() nil: %v, want DeadlineExceeded", err)
	}
	soon := pastDeadline{context.Background(), time.Now().Add(time.Hour)}
	if err := Expired(soon); err != nil {
		t.Errorf("deadline ahead: %v", err)
	}
	done, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Expired(done); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled context: %v, want Canceled", err)
	}
}

// TestLateVerdictReservesNothing admits through ServeAdmit with a
// context whose deadline has passed before its timer fired: the plan is
// found, but the verdict is reached after the deadline, so it must
// reserve nothing and answer 503 as a timeout.
func TestLateVerdictReservesNothing(t *testing.T) {
	srv, err := New(Config{Theta: cpuTheta(4, 1000, "l1"), Workers: 1, DecisionTimeout: time.Minute, Assure: assure.New("n1")})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Shutdown(context.Background()) })
	epoch := srv.Ledger().Epoch()
	ctx := pastDeadline{context.Background(), time.Now().Add(-time.Millisecond)}
	rec := httptest.NewRecorder()
	if err := srv.ServeAdmit(ctx, rec, cpuJob(t, "late", "l1", 0, 1000)); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("verdict after the deadline answered %d (%s), want 503", rec.Code, rec.Body)
	}
	st := srv.Stats()
	if st.Commitments != 0 || st.TimedOut != 1 || st.LateDecisions != 1 {
		t.Fatalf("commitments=%d timed_out=%d late_decisions=%d, want 0/1/1", st.Commitments, st.TimedOut, st.LateDecisions)
	}
	if got := srv.Ledger().Epoch(); got != epoch {
		t.Fatalf("ledger epoch moved %d → %d for an admit that reserved nothing", epoch, got)
	}
	if err := srv.Ledger().Audit(); err != nil {
		t.Fatal(err)
	}
}
