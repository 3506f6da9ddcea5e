package membership

import "fmt"

// Intent is the steward's crash-safety journal entry for one membership
// choreography. A join or leave is a multi-step plan — announce the
// roster change, execute the implied handoffs/promotions, commit the
// final table — and a steward that dies partway leaves the cluster
// between epochs: the announce table is live but ownership never moved
// (or moved only partly). The steward therefore records its full plan as
// an Intent the moment the choreography starts, broadcasts it, and keeps
// gossiping it until the final table lands. Any survivor that still sees
// an open intent from a dead steward can repair deterministically:
// probe each move's target for what actually arrived, finish or exclude
// each move accordingly, and publish the final table itself.
//
// Epochs make repair idempotent and fencing-safe: an intent whose
// TargetEpoch the registry has already reached is finished by
// definition (the forward-only CAS means nobody can re-run it), so
// receivers drop it on sight.
type Intent struct {
	// Steward is the node that owns this choreography.
	Steward string `json:"steward"`
	// Kind is IntentJoin or IntentLeave.
	Kind string `json:"kind"`
	// Member is the node joining or leaving.
	Member Member `json:"member"`
	// Force marks a leave of a presumed-dead member (promotions instead
	// of handoffs).
	Force bool `json:"force,omitempty"`
	// AnnounceEpoch is the epoch of the roster-change announcement: the
	// table the choreography started from, plus one, for a join; the
	// current table's epoch for a leave (leaves announce nothing — the
	// intent itself is the announcement).
	AnnounceEpoch uint64 `json:"announce_epoch"`
	// TargetEpoch is the epoch the final table will publish as. The
	// intent is closed everywhere once the registry reaches it.
	TargetEpoch uint64 `json:"target_epoch"`
	// Moves is the planned ownership rebalance.
	Moves []Move `json:"moves,omitempty"`
	// Pins are the join request's pinned locations (join only).
	Pins []string `json:"pins,omitempty"`
}

// Intent kinds.
const (
	IntentJoin  = "join"
	IntentLeave = "leave"
)

// Validate checks an intent's wire form.
func (it *Intent) Validate() error {
	if err := checkID("intent steward", it.Steward); err != nil {
		return err
	}
	if it.Kind != IntentJoin && it.Kind != IntentLeave {
		return fmt.Errorf("membership: unknown intent kind %q", it.Kind)
	}
	if err := checkID("intent member", it.Member.ID); err != nil {
		return err
	}
	if it.Kind == IntentJoin && (it.Member.URL == "" || len(it.Member.URL) > maxURLLen) {
		return fmt.Errorf("membership: join intent needs a member url no longer than %d bytes", maxURLLen)
	}
	if it.TargetEpoch == 0 || it.TargetEpoch < it.AnnounceEpoch {
		return fmt.Errorf("membership: intent epochs invalid (announce %d, target %d)", it.AnnounceEpoch, it.TargetEpoch)
	}
	if len(it.Moves) > maxLocs {
		return fmt.Errorf("membership: intent plans %d moves (max %d)", len(it.Moves), maxLocs)
	}
	for _, mv := range it.Moves {
		if err := checkID("intent move location", string(mv.Loc)); err != nil {
			return err
		}
		if err := checkID("intent move source", mv.From); err != nil {
			return err
		}
		if err := checkID("intent move target", mv.To); err != nil {
			return err
		}
	}
	if len(it.Pins) > maxLocs {
		return fmt.Errorf("membership: intent pins %d locations (max %d)", len(it.Pins), maxLocs)
	}
	return nil
}

// Clone returns a deep copy (intents are gossiped while mutating).
func (it *Intent) Clone() *Intent {
	if it == nil {
		return nil
	}
	cp := *it
	cp.Moves = append([]Move(nil), it.Moves...)
	cp.Pins = append([]string(nil), it.Pins...)
	return &cp
}
