// Package compute implements ROTA's representation of computations (§IV
// of the paper): actor actions, sequential actor computations Γ,
// distributed computations (Λ, s, d), and the simple and complex resource
// requirements ρ derived from them.
//
// Following the paper, a computation is represented purely by the
// resources it requires — "which resources, when and how much of them do
// computations consume, rather than what the computations do".
//
// A step carries Φ's value for its action as a resource.Amounts map,
// written by key where the action is priced. A requirement carries its
// amounts as resource.Needs runs, sorted by located type, which is how
// the schedule reads them: ConcurrentOf builds every phase of a job from
// the steps' maps in one pass.
package compute

import (
	"fmt"

	"repro/internal/resource"
)

// ActorName uniquely identifies an actor ("actors have globally unique
// names").
type ActorName string

// Op is one of the five primitive actor actions of §IV-A.
type Op uint8

// The actor primitives. An actor's behaviour is a sequence of these.
const (
	OpSend     Op = iota + 1 // send a message to another actor
	OpEvaluate               // evaluate an expression
	OpCreate                 // create a new actor
	OpReady                  // change state, become ready for next message
	OpMigrate                // move to another location
)

var opNames = map[Op]string{
	OpSend:     "send",
	OpEvaluate: "evaluate",
	OpCreate:   "create",
	OpReady:    "ready",
	OpMigrate:  "migrate",
}

// String returns the primitive's name.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Valid reports whether o is one of the five primitives.
func (o Op) Valid() bool {
	return o >= OpSend && o <= OpMigrate
}

// Action is a single actor action γ with the parameters Φ needs to cost
// it. Loc is the actor's location when the action executes (the paper's
// l(a)); Dest is the message destination's location for send, or the
// target location for migrate. Size scales the work: message size in
// units for send, expression weight for evaluate, state size for migrate.
type Action struct {
	Op     Op
	Actor  ActorName
	Target ActorName         // send: recipient; create: the new actor
	Loc    resource.Location // where the actor is when acting
	Dest   resource.Location // send: recipient's location; migrate: destination
	Size   int64             // work scale; 1 for unit actions
}

// Send builds a send action: actor at loc sends a size-unit message to
// target at dest.
func Send(actor ActorName, loc resource.Location, target ActorName, dest resource.Location, size int64) Action {
	return Action{Op: OpSend, Actor: actor, Target: target, Loc: loc, Dest: dest, Size: size}
}

// Evaluate builds an expression-evaluation action of the given weight.
func Evaluate(actor ActorName, loc resource.Location, weight int64) Action {
	return Action{Op: OpEvaluate, Actor: actor, Loc: loc, Size: weight}
}

// Create builds an actor-creation action.
func Create(actor ActorName, loc resource.Location, child ActorName) Action {
	return Action{Op: OpCreate, Actor: actor, Target: child, Loc: loc, Size: 1}
}

// Ready builds a become-ready action.
func Ready(actor ActorName, loc resource.Location) Action {
	return Action{Op: OpReady, Actor: actor, Loc: loc, Size: 1}
}

// Migrate builds a migration action moving size units of actor state from
// loc to dest.
func Migrate(actor ActorName, loc, dest resource.Location, size int64) Action {
	return Action{Op: OpMigrate, Actor: actor, Loc: loc, Dest: dest, Size: size}
}

// String renders the action, e.g. "a1.send(a2)@l1→l2".
func (a Action) String() string {
	switch a.Op {
	case OpSend:
		return fmt.Sprintf("%s.send(%s)@%s→%s", a.Actor, a.Target, a.Loc, a.Dest)
	case OpCreate:
		return fmt.Sprintf("%s.create(%s)@%s", a.Actor, a.Target, a.Loc)
	case OpMigrate:
		return fmt.Sprintf("%s.migrate(%s→%s)", a.Actor, a.Loc, a.Dest)
	default:
		return fmt.Sprintf("%s.%s@%s", a.Actor, a.Op, a.Loc)
	}
}

// Validate checks that the action's parameters are complete for its op.
func (a Action) Validate() error {
	if !a.Op.Valid() {
		return fmt.Errorf("compute: invalid op %v", a.Op)
	}
	if a.Actor == "" {
		return fmt.Errorf("compute: action %v has no actor", a.Op)
	}
	if a.Loc == "" {
		return fmt.Errorf("compute: action %v of %s has no location", a.Op, a.Actor)
	}
	if a.Size < 0 {
		return fmt.Errorf("compute: action %v of %s has negative size", a.Op, a.Actor)
	}
	switch a.Op {
	case OpSend:
		if a.Target == "" || a.Dest == "" {
			return fmt.Errorf("compute: send of %s missing target or destination", a.Actor)
		}
	case OpCreate:
		if a.Target == "" {
			return fmt.Errorf("compute: create of %s missing child name", a.Actor)
		}
	case OpMigrate:
		if a.Dest == "" {
			return fmt.Errorf("compute: migrate of %s missing destination", a.Actor)
		}
	}
	return nil
}
