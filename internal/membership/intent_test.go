package membership

import (
	"strings"
	"testing"

	"repro/internal/resource"
)

// TestIntentValidate: Validate is the gate on intents heard in gossip.
// A join and a leave planned from a real table pass; each malformed
// field is refused with an error naming it.
func TestIntentValidate(t *testing.T) {
	tab := seedTable()
	joiner := Member{ID: "n4", URL: "http://d"}
	join := Intent{Steward: "n1", Kind: IntentJoin, Member: joiner,
		AnnounceEpoch: tab.Epoch + 1, TargetEpoch: tab.Epoch + 2,
		Moves: tab.JoinMoves(joiner, []resource.Location{"l3"}), Pins: []string{"l3"}}
	leave := Intent{Steward: "n1", Kind: IntentLeave, Member: Member{ID: "n3", URL: "http://c"}, Force: true,
		AnnounceEpoch: tab.Epoch, TargetEpoch: tab.Epoch + 1, Moves: tab.LeaveMoves("n3")}
	if len(join.Moves) == 0 || len(leave.Moves) == 0 {
		t.Fatalf("seed plans move nothing: join %v, leave %v", join.Moves, leave.Moves)
	}
	cases := []struct {
		name string
		it   Intent
		want string // "" = valid; else a substring of the error
	}{
		{"valid join", join, ""},
		{"valid leave", leave, ""},
		{"unknown kind", func() Intent { it := join; it.Kind = "merge"; return it }(), "unknown intent kind"},
		{"join without url", func() Intent { it := join; it.Member.URL = ""; return it }(), "member url"},
		{"target epoch 0", func() Intent { it := leave; it.AnnounceEpoch, it.TargetEpoch = 0, 0; return it }(), "epochs invalid"},
		{"target below announce", func() Intent { it := join; it.TargetEpoch = it.AnnounceEpoch - 1; return it }(), "epochs invalid"},
		{"too many moves", func() Intent {
			it := leave
			it.Moves = make([]Move, maxLocs+1)
			for i := range it.Moves {
				it.Moves[i] = Move{Loc: "l5", From: "n3", To: "n1"}
			}
			return it
		}(), "moves (max"},
		{"empty move target", func() Intent {
			it := leave.Clone()
			it.Moves[0].To = ""
			return *it
		}(), "intent move target"},
		{"overlong move source", func() Intent {
			it := join.Clone()
			it.Moves[0].From = strings.Repeat("n", maxIDLen+1)
			return *it
		}(), "intent move source"},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.it.Validate()
			switch {
			case tt.want == "" && err != nil:
				t.Fatalf("Validate() = %v, want nil", err)
			case tt.want != "" && err == nil:
				t.Fatalf("Validate() = nil, want an error containing %q", tt.want)
			case tt.want != "" && !strings.Contains(err.Error(), tt.want):
				t.Fatalf("Validate() = %v, want an error containing %q", err, tt.want)
			}
		})
	}
}
