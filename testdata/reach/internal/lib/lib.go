// Package lib plants one case of each kind the reachability guard must
// tell apart; see TestUnreachedFixture.
package lib

// ping and pong call only each other: each names the other, and no
// binary reaches either. Reported.
func ping(n int) int {
	if n == 0 {
		return 0
	}
	return pong(n - 1)
}

func pong(n int) int { return ping(n) }

// A's Frob is called by the binary.
type A struct{}

func (A) Frob() int { return 1 }

// B is used by the binary, but its Frob, which shares its name with
// A's, is not. Reported.
type B struct{}

func (B) Frob() int { return 2 }

// C's Describe is called only through an interface the binary declares.
// Not reported.
type C struct{}

func (C) Describe() string { return "c" }

// C's String shares its name with fmt.Stringer's method, not its
// signature: no interface can call it. Reported.
func (C) String(n int) string { return "c" }

// keptHelper is reached by nothing, but says who keeps it. Not reported.
//
// Kept: TestUnreachedFixture.
func keptHelper() {}
