package resource

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/interval"
)

func patchTerm(units int64, lt LocatedType, start, end interval.Time) Term {
	return NewTerm(FromUnits(units), lt, interval.New(start, end))
}

// randomPatchSet builds a small random set over a few located types.
func randomPatchSet(rng *rand.Rand, locs []Location) Set {
	var s Set
	n := 1 + rng.Intn(4)
	for i := 0; i < n; i++ {
		loc := locs[rng.Intn(len(locs))]
		lt := CPUAt(loc)
		if rng.Intn(2) == 0 {
			lt = At(Memory, loc)
		}
		start := interval.Time(rng.Intn(50))
		end := start + 1 + interval.Time(rng.Intn(40))
		s.Add(patchTerm(int64(1+rng.Intn(8)), lt, start, end))
	}
	return s
}

func TestPatchUnionMatchesUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	locs := []Location{"l1", "l2"}
	for i := 0; i < 200; i++ {
		a := randomPatchSet(rng, locs)
		b := randomPatchSet(rng, locs)
		aBefore, bBefore := a.Clone(), b.Clone()
		got := a.PatchUnion(b)
		want := a.Union(b)
		if !got.Equal(want) {
			t.Fatalf("iter %d: PatchUnion %s != Union %s", i, got, want)
		}
		if !a.Equal(aBefore) || !b.Equal(bBefore) {
			t.Fatalf("iter %d: PatchUnion mutated an input", i)
		}
	}
}

func TestPatchSubtractMatchesSubtract(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	locs := []Location{"l1", "l2"}
	for i := 0; i < 200; i++ {
		part := randomPatchSet(rng, locs)
		base := part.Union(randomPatchSet(rng, locs)) // guarantees dominance
		baseBefore, partBefore := base.Clone(), part.Clone()
		got, err := base.PatchSubtract(part)
		if err != nil {
			t.Fatalf("iter %d: PatchSubtract of dominated part: %v", i, err)
		}
		want, err := base.Subtract(part)
		if err != nil {
			t.Fatalf("iter %d: Subtract: %v", i, err)
		}
		if !got.Equal(want) {
			t.Fatalf("iter %d: PatchSubtract %s != Subtract %s", i, got, want)
		}
		if !base.Equal(baseBefore) || !part.Equal(partBefore) {
			t.Fatalf("iter %d: PatchSubtract mutated an input", i)
		}
	}
}

func TestPatchSubtractInsufficient(t *testing.T) {
	var a, b Set
	a.Add(patchTerm(2, CPUAt("l1"), 0, 10))
	b.Add(patchTerm(3, CPUAt("l1"), 0, 10))
	if _, err := a.PatchSubtract(b); err == nil {
		t.Fatal("PatchSubtract of a dominating subtrahend must fail")
	}
}

func TestAddSetMatchesUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	locs := []Location{"l1", "l2", "l3"}
	for i := 0; i < 200; i++ {
		a := randomPatchSet(rng, locs)
		b := randomPatchSet(rng, locs)
		bBefore := b.Clone()
		want := a.Union(b)
		a.AddSet(b)
		if !a.Equal(want) {
			t.Fatalf("iter %d: AddSet %s != Union %s", i, a, want)
		}
		if !b.Equal(bBefore) {
			t.Fatalf("iter %d: AddSet mutated its argument", i)
		}
	}
	// The zero value grows in place too.
	var zero Set
	var one Set
	one.Add(patchTerm(1, CPUAt("l1"), 0, 5))
	zero.AddSet(one)
	if !zero.Equal(one) {
		t.Fatalf("AddSet into zero set = %s, want %s", zero, one)
	}
}

func TestTrimmedBeforeMatchesTrimBefore(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	locs := []Location{"l1", "l2"}
	for i := 0; i < 200; i++ {
		s := randomPatchSet(rng, locs)
		cut := interval.Time(rng.Intn(60))
		before := s.Clone()
		got := s.TrimmedBefore(cut)
		want := s.Clone()
		want.TrimBefore(cut)
		if !got.Equal(want) {
			t.Fatalf("iter %d: TrimmedBefore(%d) %s != TrimBefore %s", i, cut, got, want)
		}
		if !s.Equal(before) {
			t.Fatalf("iter %d: TrimmedBefore mutated the receiver", i)
		}
	}
}

// The sharing contract: mutating a set derived by a patch op (via the
// documented owner-only mutators applied to a *fresh clone*) must never
// be observable through the source — and, critically, profile-level ops
// on the derived set never write into shared segment storage.
func TestPatchSharingIsCopyOnWrite(t *testing.T) {
	var base Set
	base.Add(patchTerm(4, CPUAt("l1"), 0, 20))
	base.Add(patchTerm(4, At(Memory, "l2"), 0, 20))
	var part Set
	part.Add(patchTerm(1, CPUAt("l1"), 0, 10))

	free, err := base.PatchSubtract(part)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := free.Clone()

	// Further patches on top of the derived set (the ledger's pattern:
	// reserve, release, trim) must leave the earlier snapshot intact.
	free2, err := free.PatchSubtract(part)
	if err != nil {
		t.Fatal(err)
	}
	free3 := free2.PatchUnion(part)
	_ = free3.TrimmedBefore(5)
	if !free.Equal(snapshot) {
		t.Fatalf("patching on top of a derived set changed it: %s != %s", free, snapshot)
	}
	if !free3.Equal(free) {
		t.Fatalf("subtract-then-union did not round-trip: %s != %s", free3, free)
	}

	// A union into a set that lacks the type hands the profile on instead
	// of copying it (how a multi-shard snapshot is assembled). The two
	// sets then share segment storage, and the owner-only mutators applied
	// to one must still never show through the other.
	var merged Set
	merged.AddSet(base)
	for _, lt := range base.Types() {
		if !sharesStorage(merged.profileOf(lt), base.profileOf(lt)) {
			t.Fatalf("AddSet into an empty set copied the profile of %v", lt)
		}
	}
	baseBefore := NewSet(base.Terms()...)
	merged.Add(patchTerm(2, CPUAt("l1"), 5, 30))
	if err := merged.Consume(At(Memory, "l2"), interval.New(0, 20), FromUnits(4)); err != nil {
		t.Fatal(err)
	}
	merged.TrimBefore(3)
	if !base.Equal(baseBefore) {
		t.Fatalf("mutating a set that shared profiles changed its source: %s != %s", base, baseBefore)
	}
}

// sharesStorage reports whether two profiles are the same segments in the
// same memory: one flat slice, or the same chunks in the same order.
func sharesStorage(a, b profile) bool {
	n := a.numChunks()
	if n == 0 || n != b.numChunks() || (a.tab == nil) != (b.tab == nil) {
		return false
	}
	return sharedChunks(a, b) == n
}

// sharedChunks counts the chunks of a that are chunks of b, in the same
// memory.
func sharedChunks(a, b profile) int {
	mine := make(map[*segment]int, b.numChunks())
	for c := 0; c < b.numChunks(); c++ {
		mine[&b.chunk(c)[0]] = len(b.chunk(c))
	}
	shared := 0
	for c := 0; c < a.numChunks(); c++ {
		if n, ok := mine[&a.chunk(c)[0]]; ok && n == len(a.chunk(c)) {
			shared++
		}
	}
	return shared
}

// allocBytes returns the bytes one call of fn allocates, averaged over
// runs calls.
func allocBytes(runs int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// patchSink keeps the measured results reachable, so the compiler cannot
// keep them off the heap.
var patchSink Set

// withProfiles builds a set holding, for each located type, the profile
// mk returns for it: a fixture for profiles no short term sequence
// builds, such as chunked ones.
func withProfiles(types []LocatedType, mk func(LocatedType) profile) Set {
	var s Set
	for _, lt := range types {
		at, found, _ := s.locate(lt)
		s.put(at, found, lt, mk(lt))
	}
	return s
}

// The patch budget: against a set of chunked 512-segment profiles built
// by splices, a patch allocates the result's run of entries plus, for
// each located type it touches, at most one splice's three allocations
// and spliceBudget's bytes — a new chunk list and the rebuilt chunks,
// never a copy of the whole profile — and hands on every profile it does
// not touch. A touched profile shares all but the chunks the patch
// rebuilt.
func TestPatchAllocationBudget(t *testing.T) {
	const segs = 512
	types := []LocatedType{CPUAt("l1"), At(Memory, "l1"), Link("l1", "l2"), Link("l1", "l3")}
	base := withProfiles(types, func(LocatedType) profile { return wideProfile(segs) })
	// What copying the four entries costs on its own.
	copyAllocs := testing.AllocsPerRun(100, func() { patchSink = base.Clone() })
	copyBytes := allocBytes(100, func() { patchSink = base.Clone() })

	for touched := 1; touched <= 2; touched++ {
		var part Set
		for _, lt := range types[:touched] {
			part.Add(NewTerm(1, lt, interval.New(401, 403)))
			part.Add(NewTerm(1, lt, interval.New(410, 431)))
		}
		ops := map[string]func(){
			"PatchSubtract": func() { patchSink, _ = base.PatchSubtract(part) },
			"PatchUnion":    func() { patchSink = base.PatchUnion(part) },
		}
		for name, op := range ops {
			if allocs, budget := testing.AllocsPerRun(100, op), copyAllocs+3*float64(touched); allocs > budget {
				t.Errorf("%s touching %d: %.0f allocations, budget %.0f for the entries + three per type", name, touched, allocs, budget)
			}
			if bytes, budget := allocBytes(100, op), copyBytes+float64(touched)*spliceBudget(segs); bytes > budget {
				t.Errorf("%s touching %d: %.0f bytes, budget %.0f", name, touched, bytes, budget)
			}
			for i, lt := range types {
				got, was := patchSink.profileOf(lt), base.profileOf(lt)
				if shared := sharesStorage(got, was); shared != (i >= touched) {
					t.Errorf("%s touching %d: profile of %v shared=%v", name, touched, lt, shared)
				}
				if kept := sharedChunks(got, was); got.numChunks()-kept > 3 {
					t.Errorf("%s touching %d: %d of the %d chunks of %v rebuilt, want at most 3", name, touched, got.numChunks()-kept, got.numChunks(), lt)
				}
			}
		}
	}
}

// A set is one exactly sized run of (located type, profile) entries. On
// a 36-type set — six locations, their CPUs and the full mesh of links
// between them — Clone is one allocation, of entries' bytes, and a
// PatchSubtract touching one chunked type is the result's run plus at
// most one splice's three allocations.
func TestSetRunAllocationBudget(t *testing.T) {
	const segs = 512
	mesh := Mesh(Locations(6), 4, 2, 1<<20)
	touched := CPUAt("l3")
	theta := withProfiles(mesh.Types(), func(lt LocatedType) profile {
		if lt == touched {
			return wideProfile(segs)
		}
		return mesh.profileOf(lt)
	})
	if n := len(theta.Types()); n != 36 {
		t.Fatalf("fixture: %d located types, want 36", n)
	}
	clone := func() { patchSink = theta.Clone() }
	if allocs := testing.AllocsPerRun(100, clone); allocs > 1 {
		t.Errorf("Clone: %.0f allocations, want 1", allocs)
	}
	if bytes, budget := allocBytes(100, clone), 1.125*36*float64(unsafe.Sizeof(entry{})); bytes > budget {
		t.Errorf("Clone: %.0f bytes, budget %.0f for 36 entries", bytes, budget)
	}
	part := NewSet(NewTerm(1, touched, interval.New(401, 403)), NewTerm(1, touched, interval.New(410, 431)))
	patch := func() {
		var err error
		if patchSink, err = theta.PatchSubtract(part); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, patch); allocs > 1+3 {
		t.Errorf("PatchSubtract touching one type: %.0f allocations, want at most 1 + 3", allocs)
	}
	for _, lt := range theta.Types() {
		if shared := sharesStorage(patchSink.profileOf(lt), theta.profileOf(lt)); shared != (lt != touched) {
			t.Errorf("PatchSubtract touching %v: profile of %v shared=%v", touched, lt, shared)
		}
	}
}

// The sharing contract under concurrency, for `go test -race`: many
// goroutines patch, restrict, consume from and read sets derived from one
// shared base at once — the ledger's cached free view under concurrent
// plan searches. Each goroutine mutates only what it owns; nothing may
// ever write into a profile, or a chunk of one, another goroutine can
// reach. The base profiles are chunked, so the goroutines' results share
// chunks with the base and with one another.
func TestSharedProfilesUnderConcurrentPatching(t *testing.T) {
	types := []LocatedType{CPUAt("l1"), CPUAt("l2"), Link("l1", "l2")}
	base := withProfiles(types, func(LocatedType) profile { return wideProfile(4 * chunkSize) })
	for _, lt := range types {
		if p := base.profileOf(lt); p.numChunks() < 4 {
			t.Fatalf("fixture: the base profile has %d chunks, want at least 4", p.numChunks())
		}
	}
	want := NewSet(base.Terms()...)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lt := types[g%len(types)]
			at := interval.Time(8 * g)
			part := NewSet(NewTerm(1, lt, interval.New(at+1, at+7)))
			for i := 0; i < 200; i++ {
				less, err := base.PatchSubtract(part)
				if err != nil {
					t.Error(err)
					return
				}
				if back := less.PatchUnion(part); !back.Equal(base) {
					t.Errorf("goroutine %d: subtract-then-union did not round-trip", g)
					return
				}
				overlay := base.Restrict(interval.New(at, at+40), lt)
				if err := overlay.ConsumeTerms(part.Terms()); err != nil {
					t.Error(err)
					return
				}
				var seen Quantity
				base.EachSegment(lt, interval.New(at, at+40), func(span interval.Interval, rate Rate) bool {
					seen += Quantity(rate) * Quantity(span.Len())
					return true
				})
				if got := overlay.QuantityWithin(lt, interval.New(at, at+40)); got != seen-6 {
					t.Errorf("goroutine %d: overlay holds %d, want %d", g, got, seen-6)
					return
				}
				var merged Set
				merged.AddSet(base)
				merged.TrimBefore(at)
			}
		}(g)
	}
	wg.Wait()
	if !base.Equal(want) {
		t.Fatalf("the shared base changed: %s != %s", base, want)
	}
}

func TestSameIsIdentity(t *testing.T) {
	s := NewSet(patchTerm(2, CPUAt("l1"), 0, 10))
	if !s.Same(s) || !(Set{}).Same(Set{}) {
		t.Fatal("a set is not the same as itself")
	}
	if clone := s.Clone(); s.Same(clone) || !s.Equal(clone) {
		t.Fatal("a clone is the same set, or not an equal one")
	}
	if s.Same(Set{}) || !s.PatchUnion(Set{}).Same(s) {
		t.Fatal("Same confuses a set with the empty one, or PatchUnion of nothing copied")
	}
}
