package membership

import (
	"encoding/json"
	"fmt"

	"repro/internal/resource"
)

// Wire limits, matching the cluster API's ID discipline.
const (
	maxIDLen   = 256
	maxURLLen  = 2048
	maxLocs    = 4096
	maxMembers = 4096
)

// JoinRequest asks a steward node to admit a new member. Pins names
// locations the joiner claims outright (they move to it and stay pinned
// there); everything else is rebalanced by rendezvous hashing.
type JoinRequest struct {
	ID   string              `json:"id"`
	URL  string              `json:"url"`
	Pins []resource.Location `json:"pins,omitempty"`
}

// LeaveRequest asks a steward node to remove a member. Force marks the
// member as crashed: its locations are promoted from warm standbys
// instead of handed off by the member itself.
type LeaveRequest struct {
	ID    string `json:"id"`
	Force bool   `json:"force,omitempty"`
}

// HandoffRequest instructs the current owner of Locs to ship them to
// member To (make-before-break: export, install on To, then drop).
// Epoch is the table epoch the completed handoff will publish as.
// Leave marks a handoff of the owner's graceful leave: once its
// locations are gone, the owner stays out of the cluster.
type HandoffRequest struct {
	Epoch uint64              `json:"epoch"`
	Locs  []resource.Location `json:"locs"`
	To    string              `json:"to"`
	ToURL string              `json:"to_url"`
	Leave bool                `json:"leave,omitempty"`
}

// RedirectResponse is the body of a 421 Misdirected Request: the asked
// node no longer owns the location, and here is who does. Clients and
// peers follow it once and refresh their cached ownership.
type RedirectResponse struct {
	OwnerID  string              `json:"owner_id"`
	OwnerURL string              `json:"owner_url"`
	Epoch    uint64              `json:"epoch"`
	Locs     []resource.Location `json:"locs,omitempty"`
}

// WireTable is the Table's JSON form (string-keyed maps).
type WireTable struct {
	Epoch   uint64            `json:"epoch"`
	Members []Member          `json:"members"`
	Owners  map[string]string `json:"owners"`
	Pins    map[string]string `json:"pins,omitempty"`
}

// ToWire converts a table for broadcast.
func (t *Table) ToWire() WireTable {
	w := WireTable{
		Epoch:   t.Epoch,
		Members: append([]Member(nil), t.Members...),
		Owners:  make(map[string]string, len(t.Owners)),
		Pins:    make(map[string]string, len(t.Pins)),
	}
	for loc, id := range t.Owners {
		w.Owners[string(loc)] = id
	}
	for loc, id := range t.Pins {
		w.Pins[string(loc)] = id
	}
	return w
}

// FromWire converts a received table and validates it.
func FromWire(w WireTable) (*Table, error) {
	if len(w.Members) > maxMembers {
		return nil, fmt.Errorf("membership: table lists %d members (max %d)", len(w.Members), maxMembers)
	}
	if len(w.Owners) > maxLocs {
		return nil, fmt.Errorf("membership: table owns %d locations (max %d)", len(w.Owners), maxLocs)
	}
	t := &Table{
		Epoch:   w.Epoch,
		Members: append([]Member(nil), w.Members...),
		Owners:  make(map[resource.Location]string, len(w.Owners)),
		Pins:    make(map[resource.Location]string, len(w.Pins)),
	}
	for loc, id := range w.Owners {
		t.Owners[resource.Location(loc)] = id
	}
	for loc, id := range w.Pins {
		t.Pins[resource.Location(loc)] = id
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

func checkID(what, id string) error {
	if id == "" {
		return fmt.Errorf("membership: %s must not be empty", what)
	}
	if len(id) > maxIDLen {
		return fmt.Errorf("membership: %s exceeds %d bytes", what, maxIDLen)
	}
	return nil
}

func checkLocs(locs []resource.Location) error {
	if len(locs) > maxLocs {
		return fmt.Errorf("membership: %d locations (max %d)", len(locs), maxLocs)
	}
	for _, loc := range locs {
		if err := checkID("location", string(loc)); err != nil {
			return err
		}
	}
	return nil
}

// DecodeJoinRequest parses and validates a join body.
func DecodeJoinRequest(body []byte) (JoinRequest, error) {
	var req JoinRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return req, fmt.Errorf("membership: bad join body: %w", err)
	}
	if err := checkID("join id", req.ID); err != nil {
		return req, err
	}
	if req.URL == "" || len(req.URL) > maxURLLen {
		return req, fmt.Errorf("membership: join needs a url no longer than %d bytes", maxURLLen)
	}
	if err := checkLocs(req.Pins); err != nil {
		return req, err
	}
	return req, nil
}

// DecodeLeaveRequest parses and validates a leave body.
func DecodeLeaveRequest(body []byte) (LeaveRequest, error) {
	var req LeaveRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return req, fmt.Errorf("membership: bad leave body: %w", err)
	}
	if err := checkID("leave id", req.ID); err != nil {
		return req, err
	}
	return req, nil
}

// DecodeHandoffRequest parses and validates a handoff body.
func DecodeHandoffRequest(body []byte) (HandoffRequest, error) {
	var req HandoffRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return req, fmt.Errorf("membership: bad handoff body: %w", err)
	}
	if req.Epoch == 0 {
		return req, fmt.Errorf("membership: handoff epoch must be positive")
	}
	if len(req.Locs) == 0 {
		return req, fmt.Errorf("membership: handoff moves no locations")
	}
	if err := checkLocs(req.Locs); err != nil {
		return req, err
	}
	if err := checkID("handoff target", req.To); err != nil {
		return req, err
	}
	if req.ToURL == "" || len(req.ToURL) > maxURLLen {
		return req, fmt.Errorf("membership: handoff needs a target url no longer than %d bytes", maxURLLen)
	}
	return req, nil
}

// DecodeRedirect parses and validates a 421 redirect body.
func DecodeRedirect(body []byte) (RedirectResponse, error) {
	var resp RedirectResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return resp, fmt.Errorf("membership: bad redirect body: %w", err)
	}
	if err := checkID("redirect owner", resp.OwnerID); err != nil {
		return resp, err
	}
	if resp.OwnerURL == "" || len(resp.OwnerURL) > maxURLLen {
		return resp, fmt.Errorf("membership: redirect needs an owner url no longer than %d bytes", maxURLLen)
	}
	if err := checkLocs(resp.Locs); err != nil {
		return resp, err
	}
	return resp, nil
}

// DecodeTable parses and validates a table broadcast body.
func DecodeTable(body []byte) (*Table, error) {
	var w WireTable
	if err := json.Unmarshal(body, &w); err != nil {
		return nil, fmt.Errorf("membership: bad table body: %w", err)
	}
	return FromWire(w)
}
