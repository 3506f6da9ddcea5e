package membership

import (
	"encoding/json"
	"testing"

	"repro/internal/resource"
)

func seedTable() *Table {
	return NewTable(
		[]Member{{ID: "n1", URL: "http://a"}, {ID: "n2", URL: "http://b"}, {ID: "n3", URL: "http://c"}},
		map[resource.Location]string{
			"l1": "n1", "l2": "n1",
			"l3": "n2", "l4": "n2",
			"l5": "n3", "l6": "n3",
		},
	)
}

func TestSeedTable(t *testing.T) {
	tab := seedTable()
	if tab.Epoch != 1 {
		t.Fatalf("seed epoch = %d, want 1", tab.Epoch)
	}
	if err := tab.Validate(); err != nil {
		t.Fatalf("seed table invalid: %v", err)
	}
	if got := tab.Locations("n2"); len(got) != 2 || got[0] != "l3" || got[1] != "l4" {
		t.Fatalf("Locations(n2) = %v", got)
	}
	if owner, ok := tab.OwnerOf("l5"); !ok || owner != "n3" {
		t.Fatalf("OwnerOf(l5) = %q, %v", owner, ok)
	}
	if _, ok := tab.OwnerOf("nope"); ok {
		t.Fatal("OwnerOf(nope) should miss")
	}
}

func TestRendezvousDeterministicAndStable(t *testing.T) {
	tab := seedTable()
	for _, loc := range []resource.Location{"l1", "l2", "l3", "l4", "l5", "l6"} {
		a := rendezvous(tab.Members, loc, "")
		b := rendezvous(tab.Members, loc, "")
		if a != b || a == "" {
			t.Fatalf("rendezvous for %s unstable: %q vs %q", loc, a, b)
		}
		if _, ok := tab.Member(a); !ok {
			t.Fatalf("rendezvous for %s picked non-member %q", loc, a)
		}
	}
}

func TestStandbyIsFailoverTarget(t *testing.T) {
	// The property the failover design rests on: the standby (runner-up)
	// must equal the rendezvous winner among the survivors once the
	// owner departs, so the node that has been receiving shadows is
	// exactly the node promoted by LeaveMoves.
	tab := seedTable()
	for loc, owner := range tab.Owners {
		standby := tab.StandbyOf(loc)
		if standby == "" || standby == owner {
			t.Fatalf("standby of %s = %q (owner %s)", loc, standby, owner)
		}
		moves := tab.LeaveMoves(owner)
		found := false
		for _, mv := range moves {
			if mv.Loc == loc {
				found = true
				if mv.To != standby {
					t.Fatalf("leave(%s) sends %s to %s, but standby was %s", owner, loc, mv.To, standby)
				}
			}
		}
		if !found {
			t.Fatalf("leave(%s) plans no move for %s", owner, loc)
		}
	}
}

func TestJoinMovesRespectPinsAndClaims(t *testing.T) {
	tab := seedTable()
	// Pin l3 to its current owner: no joiner may take it by hash.
	tab.Pins["l3"] = "n2"
	joiner := Member{ID: "n4", URL: "http://d"}
	moves := tab.JoinMoves(joiner, []resource.Location{"l1"})

	byLoc := map[resource.Location]Move{}
	for _, mv := range moves {
		if mv.To != "n4" {
			t.Fatalf("join move %v targets %s, want n4", mv, mv.To)
		}
		byLoc[mv.Loc] = mv
	}
	if mv, ok := byLoc["l1"]; !ok || mv.From != "n1" {
		t.Fatalf("explicit pin of l1 not planned: %v", moves)
	}
	if _, ok := byLoc["l3"]; ok {
		t.Fatalf("pinned l3 must not move: %v", moves)
	}

	next := tab.Joined(joiner, moves, []resource.Location{"l1"})
	if next.Epoch != tab.Epoch+1 {
		t.Fatalf("Joined epoch = %d, want %d", next.Epoch, tab.Epoch+1)
	}
	if err := next.Validate(); err != nil {
		t.Fatalf("joined table invalid: %v", err)
	}
	if owner := next.Owners["l1"]; owner != "n4" {
		t.Fatalf("l1 owner after join = %s", owner)
	}
	if next.Pins["l1"] != "n4" {
		t.Fatal("l1 should be pinned to the joiner")
	}
	// Every moved location is recorded; every unmoved one stayed put.
	for loc, owner := range next.Owners {
		if mv, moved := byLoc[loc]; moved {
			if owner != mv.To {
				t.Fatalf("moved %s recorded as %s", loc, owner)
			}
		} else if owner != tab.Owners[loc] {
			t.Fatalf("unmoved %s changed owner to %s", loc, owner)
		}
	}
	// The original table must be untouched.
	if tab.Owners["l1"] != "n1" || len(tab.Members) != 3 {
		t.Fatal("Joined mutated the source table")
	}
}

func TestLeftDropsMemberAndPins(t *testing.T) {
	tab := seedTable()
	tab.Pins["l5"] = "n3"
	moves := tab.LeaveMoves("n3")
	if len(moves) != 2 {
		t.Fatalf("n3 owns 2 locations, planned %d moves", len(moves))
	}
	next := tab.Left("n3", moves)
	if err := next.Validate(); err != nil {
		t.Fatalf("left table invalid: %v", err)
	}
	if _, ok := next.Member("n3"); ok {
		t.Fatal("n3 still in roster")
	}
	for loc, owner := range next.Owners {
		if owner == "n3" {
			t.Fatalf("%s still owned by departed n3", loc)
		}
	}
	if _, ok := next.Pins["l5"]; ok {
		t.Fatal("pin to departed member survived")
	}
}

func TestLeaveLastMemberOrphansLocations(t *testing.T) {
	tab := NewTable([]Member{{ID: "n1", URL: "http://a"}},
		map[resource.Location]string{"l1": "n1"})
	moves := tab.LeaveMoves("n1")
	if len(moves) != 1 || moves[0].To != "" {
		t.Fatalf("moves = %v, want one orphaning move", moves)
	}
	next := tab.Left("n1", moves)
	if len(next.Owners) != 0 || len(next.Members) != 0 {
		t.Fatalf("emptied cluster still has state: %+v", next)
	}
}

func TestWireRoundTrip(t *testing.T) {
	tab := seedTable()
	tab.Pins["l2"] = "n1"
	body, err := json.Marshal(tab.ToWire())
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeTable(body)
	if err != nil {
		t.Fatalf("DecodeTable: %v", err)
	}
	if back.Epoch != tab.Epoch || len(back.Members) != len(tab.Members) {
		t.Fatalf("round trip lost data: %+v", back)
	}
	for loc, id := range tab.Owners {
		if back.Owners[loc] != id {
			t.Fatalf("owner of %s lost in round trip", loc)
		}
	}
	if back.Pins["l2"] != "n1" {
		t.Fatal("pin lost in round trip")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := []struct {
		name string
		dec  func([]byte) error
		body string
	}{
		{"join no id", func(b []byte) error { _, err := DecodeJoinRequest(b); return err }, `{"url":"http://x"}`},
		{"join no url", func(b []byte) error { _, err := DecodeJoinRequest(b); return err }, `{"id":"n9"}`},
		{"join bad json", func(b []byte) error { _, err := DecodeJoinRequest(b); return err }, `{`},
		{"leave no id", func(b []byte) error { _, err := DecodeLeaveRequest(b); return err }, `{"force":true}`},
		{"handoff no locs", func(b []byte) error { _, err := DecodeHandoffRequest(b); return err }, `{"epoch":2,"to":"n2","to_url":"http://b"}`},
		{"handoff no epoch", func(b []byte) error { _, err := DecodeHandoffRequest(b); return err }, `{"locs":["l1"],"to":"n2","to_url":"http://b"}`},
		{"redirect no owner", func(b []byte) error { _, err := DecodeRedirect(b); return err }, `{"epoch":3}`},
		{"table zero epoch", func(b []byte) error { _, err := DecodeTable(b); return err }, `{"epoch":0,"members":[{"id":"a","url":"u"}],"owners":{}}`},
		{"table unknown owner", func(b []byte) error { _, err := DecodeTable(b); return err }, `{"epoch":1,"members":[{"id":"a","url":"u"}],"owners":{"l1":"ghost"}}`},
		{"table pin mismatch", func(b []byte) error { _, err := DecodeTable(b); return err }, `{"epoch":1,"members":[{"id":"a","url":"u"},{"id":"b","url":"u"}],"owners":{"l1":"a"},"pins":{"l1":"b"}}`},
	}
	for _, tc := range cases {
		if err := tc.dec([]byte(tc.body)); err == nil {
			t.Errorf("%s: decoded without error", tc.name)
		}
	}
}

func TestRegistryApplyIsEpochGated(t *testing.T) {
	tab := seedTable()
	reg := NewRegistry(tab)
	if reg.Epoch() != 1 {
		t.Fatalf("epoch = %d", reg.Epoch())
	}
	stale := tab.Clone()
	if reg.Apply(stale) {
		t.Fatal("same-epoch apply must be rejected")
	}
	next := tab.Joined(Member{ID: "n4", URL: "http://d"}, nil, nil)
	if !reg.Apply(next) {
		t.Fatal("newer table rejected")
	}
	if reg.Snapshot().Epoch != 2 {
		t.Fatalf("snapshot epoch = %d", reg.Snapshot().Epoch)
	}
	if reg.Apply(tab) {
		t.Fatal("older table applied after newer")
	}
}

func TestNilRegistrySeed(t *testing.T) {
	reg := NewRegistry(nil)
	if reg.Epoch() != 0 {
		t.Fatalf("nil seed epoch = %d", reg.Epoch())
	}
	tab := seedTable()
	if !reg.Apply(tab) {
		t.Fatal("epoch-1 table rejected over nil seed")
	}
}
