package admission

import (
	"errors"
	"fmt"

	"repro/internal/interval"
	"repro/internal/obs/span"
	"repro/internal/resource"
	"repro/internal/schedule"
)

// A refusal is a typed error made where the refusal happens, naming the
// Theorem-4 obligation that failed: the deadline has already passed
// (*DeadlinePassed), no witness exists for one actor's phase over
// (ξ, window) or no actor ordering succeeded (*schedule.Infeasible), or
// a shard's free view cannot hold the plan (*Overcommit). Explain turns
// one into provenance; nothing parses its text.

// ErrOvercommit is the capacity refusal: holding a plan's slice would
// break a shard's no-overcommitment invariant. errors.Is(err,
// ErrOvercommit) holds for every *Overcommit. The daemon re-exports it
// as server.ErrOvercommit, whose text it has always carried.
var ErrOvercommit = errors.New("server: demand exceeds free availability")

// DeadlinePassed refuses a job whose deadline is not after the clock.
type DeadlinePassed struct {
	Deadline, Now interval.Time
}

func (e *DeadlinePassed) Error() string {
	return fmt.Sprintf("deadline %d already passed at t=%d", e.Deadline, e.Now)
}

// PastDeadline is the one constructor of the deadline refusal, shared
// by the local ledger and the cluster coordinator.
func PastDeadline(deadline, now interval.Time) Decision {
	return Refuse(&DeadlinePassed{Deadline: deadline, Now: now})
}

// Overcommit refuses a plan whose slice on Shard no longer fits the
// shard's free view. Key names the two-phase prepare that was refused
// and Node the participant that refused it; both are empty for a local
// reservation, which the daemon replans.
type Overcommit struct {
	Shard           resource.Location
	Key, Name, Node string
}

func (e *Overcommit) Error() string {
	if e.Key == "" {
		return fmt.Sprintf("%v: shard %s cannot hold the plan for %s", ErrOvercommit, e.Shard, e.Name)
	}
	return fmt.Sprintf("%v: shard %s cannot hold prepare %s for %s", ErrOvercommit, e.Shard, e.Key, e.Name)
}

// Is makes errors.Is(err, ErrOvercommit) hold.
func (e *Overcommit) Is(target error) bool { return target == ErrOvercommit }

// Refuse is the rejecting Decision carrying err: Reason is its text.
func Refuse(err error) Decision {
	return Decision{Reason: err.Error(), Refusal: err}
}

// Explain is the structured provenance of a refusal, filled from its
// type: validate/deadline, plan/witness with the located type and
// window that failed, plan/ordering, or capacity/free-view with the
// shard and the refusing node. Any other error explains as
// other/other. Detail is the refusal's text. Nil for a nil error.
func Explain(err error) *span.Provenance {
	if err == nil {
		return nil
	}
	p := &span.Provenance{Stage: "other", Constraint: "other", Detail: err.Error()}
	var late *DeadlinePassed
	var nope *schedule.Infeasible
	var shared *Overcommit
	switch {
	case errors.As(err, &late):
		p.Stage, p.Constraint = "validate", "deadline"
	case errors.As(err, &nope):
		p.Stage, p.Constraint = "plan", "ordering"
		if nope.OrdersTried == 0 { // a witness failure names (ξ, window)
			p.Constraint, p.Term, p.Window = "witness", nope.Type.String(), nope.Window.String()
		}
	case errors.As(err, &shared):
		p.Stage, p.Constraint, p.Term, p.Node = "capacity", "free-view", string(shared.Shard), shared.Node
	}
	return p
}
