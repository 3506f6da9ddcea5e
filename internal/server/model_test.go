package server

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/interval"
	"repro/internal/obs/assure"
	"repro/internal/resource"
)

// modelSeed adds one run of TestReservationModel under a chosen seed;
// 0 draws one from the clock. A chosen seed names its subtest; a clock
// seed runs as seed=clock, so the suite's test names stay stable, and is
// logged, so a failure is reproduced with -model.seed.
var modelSeed = flag.Int64("model.seed", 0, "extra seed for TestReservationModel (0 = from the clock)")

// pinnedSeeds are clock seeds from earlier runs, kept by name; they are
// not asked to drive every hand-off interleaving.
var pinnedSeeds = []int64{1792044495764141332}

// The four ways the two slices of one federated job can meet on a
// hand-off's receiver between the coordinator's prepare and the end of
// its commit round.
const (
	hitSourceFirst   = "source committed first"
	hitReceiverFirst = "receiver committed first"
	hitAbort         = "abort instead of commit"
	hitExpiry        = "lease expired between import and commit"
)

// modelRec is the reference model's reservation: what the ledger must
// report about one job, without the demand itself (Audit holds the
// ledger's own books to its shards; the model holds the books to the
// history).
type modelRec struct {
	key    string
	lease  interval.Time // 0 = committed
	finish interval.Time
	// ends maps each location the record holds demand on to the end of
	// that demand: a slice the clock has fully consumed does not travel.
	ends map[resource.Location]interval.Time
}

type modelSide struct {
	l     *Ledger
	cfg   Config               // what l was built from, its promise ledger aside
	recs  map[string]*modelRec // by job name
	owned map[resource.Location]bool
	ops   []loggedOp // l's op stream, as its notify received it
	// shadow is a ledger fed nothing but l's ops: the first fed of them.
	shadow *Ledger
	fed    int
}

type loggedOp struct {
	epoch uint64
	op    op
}

// cloneOp copies what an op records deep enough that later mutations of
// the ledger that applied it, or of one replaying it, cannot reach the
// copy: a landed record's parts become the live record's, which merges
// and drops edit in place. What apply derived from the ledger is not
// part of the record and is left out.
func cloneOp(o op) op {
	o.rec.parts = slices.Clone(o.rec.parts)
	for i := range o.rec.parts {
		o.rec.parts[i].set = o.rec.parts[i].set.Clone()
	}
	o.locs, o.moved = slices.Clone(o.locs), slices.Clone(o.moved)
	o.jobs, o.live, o.lapsed, o.adopted = nil, nil, nil, nil
	return o
}

var opNames = [...]string{"reserve", "release", "prepare", "commit", "abort", "acquire", "advance", "drop", "install"}

func (lo loggedOp) String() string {
	o := lo.op
	return fmt.Sprintf("e%d %s name=%q key=%q locs=%v moved=%v at=%d unwind=%v",
		lo.epoch, opNames[o.kind], o.rec.name, o.rec.key, o.locs, o.moved, o.at, o.unwind)
}

// replay applies one recorded op to l through the effect steps the live
// methods run, then apply. It calls no admission or schedule code: a
// reserve lands the plan it carries instead of searching for one.
// Advance, DropLocations and ImportLocations check nothing a recorded op
// could fail, so their effect step is the method itself.
func replay(l *Ledger, o op) error {
	switch o.kind {
	case opReserve, opPrepare, opAcquire:
		var buf lockBuf
		shards := l.lockedShards(&buf, o.locs)
		if o.kind == opAcquire {
			acquire(shards, o.rec.parts)
			shards.unlock()
			l.apply(o)
			return nil
		}
		reserve(shards, o.rec.parts)
		shards.unlock()
		claim := &reservation{name: o.rec.name, key: o.rec.key, pending: true}
		l.mu.Lock()
		err := l.claimLocked(claim)
		l.mu.Unlock()
		if err != nil {
			return err
		}
		l.land(o, claim)
	case opRelease, opAbort:
		l.mu.Lock()
		r := l.byName[o.rec.name]
		if r != nil {
			l.unindexLocked(r)
		}
		l.mu.Unlock()
		if r == nil {
			return fmt.Errorf("no record of %s", o.rec.name)
		}
		return l.free(o, r)
	case opCommit:
		l.mu.Lock()
		defer l.mu.Unlock()
		r := l.byKey[o.rec.key]
		if r == nil {
			return fmt.Errorf("no hold under key %s", o.rec.key)
		}
		l.commitLocked(o, r)
	case opAdvance:
		_, err := l.Advance(o.at)
		return err
	case opDrop:
		l.DropLocations(o.moved)
	case opInstall:
		return l.ImportLocations(o.exports)
	}
	return nil
}

func (s *modelSide) byKey(key string) (string, *modelRec) {
	for name, r := range s.recs {
		if r.key == key {
			return name, r
		}
	}
	return "", nil
}

type reservationModel struct {
	t     *testing.T
	rng   *rand.Rand
	now   interval.Time
	sides [2]*modelSide
	theta resource.Set      // every availability ever granted, untrimmed
	names []string          // every job name used
	keyOf map[string]string // job name -> its two-phase key
	keys  []string
	// met marks keys whose slices a hand-off merged while a lease was
	// still open on one of them; hits counts the interleavings seen.
	met  map[string]bool
	hits map[string]int
}

var modelLocs = []resource.Location{"l1", "l2", "l3", "l4"}

const modelHorizon = 1 << 20

func newReservationModel(t *testing.T, seed int64) *reservationModel {
	m := &reservationModel{t: t, rng: rand.New(rand.NewSource(seed)), theta: cpuTheta(6, modelHorizon, modelLocs...),
		keyOf: map[string]string{}, met: map[string]bool{}, hits: map[string]int{}}
	for i := range m.sides {
		mine := modelLocs[2*i : 2*i+2]
		s := &modelSide{recs: map[string]*modelRec{}, owned: map[resource.Location]bool{},
			cfg: Config{Theta: cpuTheta(6, modelHorizon, mine...), Owned: mine}}
		cfg := s.cfg
		cfg.Assure = assure.New("")
		s.l = NewLedger(cfg, func(e uint64, o op) { s.ops = append(s.ops, loggedOp{e, cloneOp(o)}) })
		s.shadow = s.replayed()
		for _, loc := range mine {
			s.owned[loc] = true
		}
		m.sides[i] = s
	}
	return m
}

// pickLocs draws one or two distinct locations, owned by anyone.
func (m *reservationModel) pickLocs() []resource.Location {
	locs := []resource.Location{modelLocs[m.rng.Intn(len(modelLocs))]}
	if other := modelLocs[m.rng.Intn(len(modelLocs))]; other != locs[0] && m.rng.Intn(2) == 0 {
		locs = append(locs, other)
	}
	slices.Sort(locs)
	return locs
}

// pickName draws a fresh job name, or now and then one already used.
func (m *reservationModel) pickName() string {
	if len(m.names) > 0 && m.rng.Intn(8) == 0 {
		return m.names[m.rng.Intn(len(m.names))]
	}
	name := fmt.Sprintf("j%d", len(m.names))
	m.names = append(m.names, name)
	return name
}

func (m *reservationModel) ownsAll(s *modelSide, locs []resource.Location) bool {
	for _, loc := range locs {
		if !s.owned[loc] {
			return false
		}
	}
	return true
}

func (m *reservationModel) expect(what string, err, want error) {
	m.t.Helper()
	if want == nil && err != nil || want != nil && !errors.Is(err, want) {
		m.t.Fatalf("t=%d %s: err = %v, want %v", m.now, what, err, want)
	}
}

func (m *reservationModel) admit() {
	side := m.rng.Intn(2)
	s, name, locs := m.sides[side], m.pickName(), m.pickLocs()
	what := fmt.Sprintf("admit %s on side %d at %v", name, side, locs)
	dec, err := s.l.Admit(&admission.Rota{}, triJob(m.t, name, locs, m.now, m.now+interval.Time(10+m.rng.Intn(40))))
	switch {
	case s.recs[name] != nil:
		m.expect(what, err, ErrDuplicate)
	case !m.ownsAll(s, locs):
		m.expect(what, err, ErrNotOwned)
	default:
		m.expect(what, err, nil)
		if dec.Admit { // capacity decides; the model takes the verdict as given
			rec := &modelRec{finish: dec.Plan.Finish, ends: map[resource.Location]interval.Time{}}
			for _, p := range splitByShard(dec.Plan.Demand()) {
				rec.ends[p.loc] = p.set.Hull().End
			}
			s.recs[name] = rec
		}
	}
}

// prepare sends one participant's Prepare: the slice of a job's demand
// on locs, under the job's one key.
func (m *reservationModel) prepare(side int, name string, locs []resource.Location, start, end, expiry interval.Time) {
	s := m.sides[side]
	key, known := m.keyOf[name]
	if !known {
		key = "k-" + name
		m.keyOf[name] = key
		m.keys = append(m.keys, key)
	}
	var demand resource.Set
	for _, loc := range locs {
		demand.Add(resource.NewTerm(u(1), resource.CPUAt(loc), interval.New(start, end)))
	}
	what := fmt.Sprintf("prepare %s for %s on side %d at %v", key, name, side, locs)
	err := s.l.Prepare(key, name, demand, end, end+10, expiry)
	_, held := s.byKey(key)
	switch {
	case expiry <= m.now:
		m.expect(what, err, ErrLeaseExpired)
	case !m.ownsAll(s, locs):
		m.expect(what, err, ErrNotOwned)
	case held != nil:
		m.expect(what, err, nil) // a retry, reserving nothing
	case s.recs[name] != nil:
		m.expect(what, err, ErrDuplicate)
	case errors.Is(err, ErrOvercommit): // capacity decides
	default:
		m.expect(what, err, nil)
		rec := &modelRec{key: key, lease: expiry, finish: end, ends: map[resource.Location]interval.Time{}}
		for _, loc := range locs {
			rec.ends[loc] = end
		}
		s.recs[name] = rec
	}
}

// prepareRound is a coordinator's prepare phase: one job, each owner of
// its footprint sent its own slice.
func (m *reservationModel) prepareRound() {
	name, locs := m.pickName(), m.pickLocs()
	start := m.now + interval.Time(m.rng.Intn(5))
	end := start + interval.Time(5+m.rng.Intn(30))
	expiry := m.now + interval.Time(m.rng.Intn(40)) // now and then already expired
	for side, s := range m.sides {
		var mine []resource.Location
		for _, loc := range locs {
			if s.owned[loc] {
				mine = append(mine, loc)
			}
		}
		if len(mine) > 0 {
			m.prepare(side, name, mine, start, end, expiry)
		}
	}
	if m.rng.Intn(6) == 0 { // a misrouted or retried participant
		m.prepare(m.rng.Intn(2), name, locs, start, end, expiry)
	}
}

// pickLive draws a side and one of its live reservations' names (with a
// key, when keyed is set), sorted first so a seed replays; ok is false
// when that side has none.
func (m *reservationModel) pickLive(keyed bool) (side int, name string, ok bool) {
	side = m.rng.Intn(2)
	var live []string
	for name, rec := range m.sides[side].recs {
		if !keyed || rec.key != "" {
			live = append(live, name)
		}
	}
	if len(live) == 0 {
		return side, "", false
	}
	sort.Strings(live)
	return side, live[m.rng.Intn(len(live))], true
}

// pickKey draws a side and a key for commit or abort: mostly one live
// there, now and then any key ever used (swept, moved, never sent).
func (m *reservationModel) pickKey() (int, string) {
	if side, name, ok := m.pickLive(true); ok && m.rng.Intn(5) > 0 {
		return side, m.sides[side].recs[name].key
	}
	return m.rng.Intn(2), m.keys[m.rng.Intn(len(m.keys))]
}

func (m *reservationModel) commit() {
	side, key := m.pickKey()
	s := m.sides[side]
	err := s.l.Commit(key)
	what := fmt.Sprintf("commit %s on side %d", key, side)
	switch _, rec := s.byKey(key); {
	case rec == nil:
		m.expect(what, err, ErrUnknownHold)
	case rec.lease == 0:
		m.expect(what, err, nil)
	case rec.lease <= m.now:
		m.expect(what, err, ErrLeaseExpired)
	default:
		m.expect(what, err, nil)
		rec.lease = 0
		delete(m.met, key)
	}
}

func (m *reservationModel) abort() {
	side, key := m.pickKey()
	s := m.sides[side]
	m.expect(fmt.Sprintf("abort %s on side %d", key, side), s.l.Abort(key), nil)
	if name, rec := s.byKey(key); rec != nil {
		if rec.lease != 0 && m.met[key] {
			m.hits[hitAbort]++
			delete(m.met, key)
		}
		delete(s.recs, name)
	}
}

func (m *reservationModel) release() {
	side, name, ok := m.pickLive(false)
	if !ok || m.rng.Intn(5) == 0 {
		name = m.names[m.rng.Intn(len(m.names))]
	}
	s := m.sides[side]
	err := s.l.Release(name)
	what := fmt.Sprintf("release %s on side %d", name, side)
	if rec := s.recs[name]; rec == nil || rec.lease != 0 {
		m.expect(what, err, ErrUnknown)
		return
	}
	m.expect(what, err, nil)
	delete(s.recs, name)
}

// advance moves both clocks together, as a cluster's ticks do.
func (m *reservationModel) advance() {
	m.now += interval.Time(1 + m.rng.Intn(6))
	for side, s := range m.sides {
		done, err := s.l.Advance(m.now)
		m.expect(fmt.Sprintf("advance side %d", side), err, nil)
		var want []string
		for name, rec := range s.recs {
			switch {
			case rec.lease == 0 && rec.finish <= m.now:
				want = append(want, name)
				delete(s.recs, name)
			case rec.lease != 0 && rec.lease <= m.now:
				if m.met[rec.key] {
					m.hits[hitExpiry]++
					delete(m.met, rec.key)
				}
				delete(s.recs, name)
			}
		}
		sort.Strings(want)
		if !slices.Equal(done, want) {
			m.t.Fatalf("t=%d advance side %d completed %v, model says %v", m.now, side, done, want)
		}
	}
}

func (m *reservationModel) acquire() {
	side, loc := m.rng.Intn(2), modelLocs[m.rng.Intn(len(modelLocs))]
	start := m.now + interval.Time(m.rng.Intn(20))
	extra := resource.NewSet(resource.NewTerm(u(1), resource.CPUAt(loc), interval.New(start, start+interval.Time(1+m.rng.Intn(40)))))
	err := m.sides[side].l.Acquire(extra)
	what := fmt.Sprintf("acquire %s on side %d", extra.Compact(), side)
	if !m.sides[side].owned[loc] {
		m.expect(what, err, ErrNotOwned)
		return
	}
	m.expect(what, err, nil)
	m.theta.AddSet(extra)
}

// handoff moves a random non-empty subset of one side's locations to the
// other, make-before-break as the cluster layer sequences it.
func (m *reservationModel) handoff() {
	from := m.rng.Intn(2)
	if len(m.sides[from].owned) == 0 {
		from = 1 - from
	}
	src, dst := m.sides[from], m.sides[1-from]
	var locs []resource.Location
	for _, loc := range modelLocs {
		if src.owned[loc] && (len(locs) == 0 || m.rng.Intn(2) == 0) {
			locs = append(locs, loc)
		}
	}
	dst.l.AddOwned(locs)
	m.expect(fmt.Sprintf("import %v from side %d", locs, from), dst.l.ImportLocations(src.l.ExportLocations(locs)), nil)
	src.l.DropLocations(locs)

	for name, rec := range src.recs {
		in := &modelRec{key: rec.key, lease: rec.lease, finish: rec.finish, ends: map[resource.Location]interval.Time{}}
		touched := false
		for _, loc := range locs {
			if end, ok := rec.ends[loc]; ok {
				touched = true
				delete(rec.ends, loc)
				if end > m.now {
					in.ends[loc] = end
				}
			}
		}
		if !touched {
			continue
		}
		if len(rec.ends) == 0 {
			delete(src.recs, name)
		}
		if len(in.ends) == 0 {
			continue
		}
		have := dst.recs[name]
		if have == nil {
			dst.recs[name] = in
			continue
		}
		// The merge rule: committed as soon as any slice is; two leases
		// keep the earlier expiry.
		for loc, end := range in.ends {
			have.ends[loc] = max(have.ends[loc], end)
		}
		have.finish = max(have.finish, in.finish)
		switch {
		case have.lease != 0 && in.lease == 0:
			m.hits[hitSourceFirst]++
			have.lease = 0
		case have.lease == 0 && in.lease != 0:
			m.hits[hitReceiverFirst]++
		case have.lease != 0:
			m.met[in.key] = true
			have.lease = min(have.lease, in.lease)
		}
		if have.key == "" {
			have.key = in.key
		}
	}
	for _, loc := range locs {
		delete(src.owned, loc)
		dst.owned[loc] = true
	}
}

// render is one side's reservations as the model sees them, in the shape
// renderSnapshot gives the ledger's.
func (s *modelSide) render() []string {
	var out []string
	for name, rec := range s.recs {
		locs := make([]string, 0, len(rec.ends))
		for loc := range rec.ends {
			locs = append(locs, string(loc))
		}
		sort.Strings(locs)
		key := rec.key
		if rec.lease == 0 {
			key = "" // a commitment's key is not in the snapshot
		}
		out = append(out, fmt.Sprintf("%s key=%s lease=%d finish=%d at %s", name, key, rec.lease, rec.finish, strings.Join(locs, ",")))
	}
	sort.Strings(out)
	return out
}

func renderSnapshot(snap Snapshot) []string {
	var out []string
	for _, c := range snap.Commitments {
		out = append(out, fmt.Sprintf("%s key= lease=0 finish=%d at %s", c.Name, c.Finish, strings.Join(c.Locations, ",")))
	}
	for _, h := range snap.Holds {
		out = append(out, fmt.Sprintf("%s key=%s lease=%d finish=%d at %s", h.Name, h.Key, h.Expiry, h.Finish, strings.Join(h.Location, ",")))
	}
	sort.Strings(out)
	return out
}

// fail stops the run on a broken check and prints the last ops the
// failing side's ledger applied.
func (m *reservationModel) fail(side int, format string, args ...any) {
	m.t.Helper()
	ops := m.sides[side].ops
	var tail []string
	for _, lo := range ops[max(0, len(ops)-20):] {
		tail = append(tail, lo.String())
	}
	m.t.Fatalf(format+"\nside %d's last %d ops:\n  %s", append(args, side, len(tail), strings.Join(tail, "\n  "))...)
}

// check holds both ledgers to their own books (Audit) and to the model.
func (m *reservationModel) check(step int, op string) {
	m.t.Helper()
	seen := map[string]int{} // "name@loc" -> side
	for side, s := range m.sides {
		if err := s.l.Audit(); err != nil {
			m.fail(side, "step %d (%s) t=%d side %d: %v", step, op, m.now, side, err)
		}
		got := renderSnapshot(s.l.Snapshot())
		if want := s.render(); !slices.Equal(got, want) {
			m.fail(side, "step %d (%s) t=%d side %d holds\n  %s\nmodel says\n  %s", step, op, m.now, side,
				strings.Join(got, "\n  "), strings.Join(want, "\n  "))
		}
		if got, want := s.l.NumHolds()+s.l.NumCommitments(), len(s.recs); got != want {
			m.fail(side, "step %d (%s) side %d: %d holds+commitments, model says %d", step, op, side, got, want)
		}
		for _, line := range got {
			name, at, _ := strings.Cut(line, " key=")
			_, at, _ = strings.Cut(at, " at ")
			for _, loc := range strings.Split(at, ",") {
				if other, dup := seen[name+"@"+loc]; dup && other != side {
					m.fail(side, "step %d (%s): %s is live on %s on both ledgers", step, op, name, loc)
				}
				seen[name+"@"+loc] = side
			}
		}
	}
}

// promiseCounts is what replay must reproduce of a promise ledger: how
// many promises stand in each state.
func promiseCounts(l *Ledger) [6]uint64 {
	st := l.assure.Stats()
	return [6]uint64{st.Active, st.Kept, st.Violated, st.Orphaned, st.EvictedWithJob, st.Transferred}
}

// replayed builds a fresh ledger from the side's Config, with a fresh
// promise ledger, for the side's ops to be replayed into.
func (s *modelSide) replayed() *Ledger {
	cfg := s.cfg
	cfg.Assure = assure.New("")
	return NewLedger(cfg, nil)
}

// checkReplay holds each side's live ledger to one fed only its op
// stream: the shadow, fed each step's ops as they come, and at the end
// of the run and of the drain (final) a fresh ledger fed the whole
// stream. Each must reach the live side's state — the same Snapshot
// JSON, owned locations, epoch and promise counts — and a clean Audit.
func (m *reservationModel) checkReplay(when string, final bool) {
	m.t.Helper()
	for side, s := range m.sides {
		l, from := s.shadow, s.fed
		if final {
			l, from = s.replayed(), 0
		}
		for _, lo := range s.ops[from:] {
			if err := replay(l, cloneOp(lo.op)); err != nil {
				m.fail(side, "%s: side %d replaying %v: %v", when, side, lo, err)
			}
		}
		if !final {
			s.fed = len(s.ops)
		}
		if err := l.Audit(); err != nil {
			m.fail(side, "%s: side %d replayed: %v", when, side, err)
		}
		live, _ := json.Marshal(s.l.Snapshot())
		replayed, _ := json.Marshal(l.Snapshot())
		if string(live) != string(replayed) {
			m.fail(side, "%s: side %d replayed to\n  %s\nlive\n  %s", when, side, replayed, live)
		}
		if got, want := l.OwnedLocations(), s.l.OwnedLocations(); !slices.Equal(got, want) {
			m.fail(side, "%s: side %d replayed owning %v, live owns %v", when, side, got, want)
		}
		if got, want := l.Epoch(), s.l.Epoch(); got != want {
			m.fail(side, "%s: side %d replayed to epoch %d, live stands at %d", when, side, got, want)
		}
		if got, want := promiseCounts(l), promiseCounts(s.l); got != want {
			m.fail(side, "%s: side %d replayed promise counts %v, live %v (active kept violated orphaned evicted transferred)",
				when, side, got, want)
		}
	}
}

// drain releases or aborts everything still live and checks that every
// unit of Θ came back.
func (m *reservationModel) drain() {
	for side, s := range m.sides {
		for name, rec := range s.recs {
			if rec.lease != 0 {
				m.expect("draining "+rec.key, s.l.Abort(rec.key), nil)
			} else {
				m.expect("draining "+name, s.l.Release(name), nil)
			}
			delete(s.recs, name)
		}
		m.check(-1, "drain")
		if active := s.l.assure.Stats().Active; active != 0 {
			m.fail(side, "side %d drained with %d promises still active", side, active)
		}
		var locs []resource.Location
		var want resource.Set
		theta := splitByShard(m.theta.TrimmedBefore(m.now))
		for loc := range s.owned {
			locs = append(locs, loc)
			part, _ := theta.on(loc)
			want.AddSet(part)
		}
		if len(locs) == 0 {
			continue
		}
		free, _, err := s.l.FreeView(locs)
		m.expect("final free view", err, nil)
		if !free.Equal(want) {
			m.t.Fatalf("side %d drained: free %s, Θ %s", side, free.Compact(), want.Compact())
		}
	}
}

func (m *reservationModel) run(steps int) {
	ops := []struct {
		name   string
		weight int
		do     func()
	}{
		{"admit", 3, m.admit}, {"prepare", 5, m.prepareRound}, {"commit", 4, m.commit},
		{"abort", 2, m.abort}, {"release", 2, m.release}, {"advance", 3, m.advance},
		{"acquire", 1, m.acquire}, {"handoff", 3, m.handoff},
	}
	total := 0
	for _, op := range ops {
		total += op.weight
	}
	m.prepareRound() // commit, abort and release need a key and a name to draw
	for step := 0; step < steps; step++ {
		pick := m.rng.Intn(total)
		for _, op := range ops {
			if pick -= op.weight; pick < 0 {
				op.do()
				m.check(step, op.name)
				m.checkReplay(fmt.Sprintf("step %d (%s)", step, op.name), false)
				break
			}
		}
	}
	m.checkReplay("run", true)
	m.drain()
	m.checkReplay("drain", true)
}

// TestReservationModel drives two ledgers through random admissions,
// two-phase rounds, releases, clock advances, acquisitions and hand-offs
// in both directions, and after every step holds both to Audit and to a
// reference model of the one reservation state machine (pending → leased
// → committed → gone, and the merge rule when two slices of a job meet).
// Both ledgers keep promise ledgers, and each records its op stream: a
// shadow ledger fed only that stream must reach the live one's state
// after every step, and so must a fresh ledger fed the whole stream at
// the end of the run and once drained (checkReplay).
// The fixed seeds are kept because each drives all four mid-commit
// hand-off interleavings; the run asserts they still do.
func TestReservationModel(t *testing.T) {
	seeds := []int64{1, 2, 3}
	run := func(name string, seed int64) {
		t.Run(name, func(t *testing.T) {
			t.Logf("seed %d", seed)
			newReservationModel(t, seed).run(2000)
		})
	}
	for _, seed := range pinnedSeeds {
		run(fmt.Sprintf("seed=%d", seed), seed)
	}
	if *modelSeed != 0 {
		run(fmt.Sprintf("seed=%d", *modelSeed), *modelSeed)
	} else {
		run("seed=clock", time.Now().UnixNano())
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			m := newReservationModel(t, seed)
			m.run(2000)
			for _, hit := range []string{hitSourceFirst, hitReceiverFirst, hitAbort, hitExpiry} {
				if m.hits[hit] == 0 {
					t.Errorf("seed %d no longer drives %q (hits: %v)", seed, hit, m.hits)
				}
			}
		})
	}
}
