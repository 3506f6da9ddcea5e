package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/admission"
	"repro/internal/compute"
	"repro/internal/cost"
	"repro/internal/interval"
	"repro/internal/obs/assure"
	"repro/internal/query"
	"repro/internal/resource"
	"repro/internal/server"
	"repro/internal/workload"
)

// Located types are disjoint resources, so a federation that answers a
// client who waits for each reply should be indistinguishable from one
// ledger holding the union Θ: a coordinated admit plans against the
// owners' merged free views exactly as a local admit plans against its
// own, and a forwarded one plans on its sole owner. The differential
// test drives one seeded stream through both and compares every answer.

// TestClusterDecidesAsOneLedger runs the stream on three seeds. Each
// step is an admit (a job spanning two owners, a one-location job
// posted to whichever node is next in the rotation, or a
// workload.Generate job with sends and migrates), a release or a clock
// advance, entered at a rotating node. After every step it compares the
// status, the verdict, the plan finish and the refusal's stage and
// constraint, then the promise totals on /v1/assure, then two one-shot
// queries: a holds over two owners' locations and feasible() of the
// latest live two-owner job.
func TestClusterDecidesAsOneLedger(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runDifferential(t, seed, 120)
		})
	}
}

// differential is the pair of systems under one stream: a 3-node
// federation and a standalone server over the union of its Θ.
type differential struct {
	t       *testing.T
	tc      *Fleet
	one     *server.Server
	locs    []resource.Location
	owner   map[resource.Location]int // location → index of its owning node
	shares  map[string]int            // admitted job → owners holding a share of it
	names   []string                  // every admitted job, in admission order
	now     interval.Time
	entries int
}

func newDifferential(t *testing.T) *differential {
	const nodes, perNode = 3, 2
	var locs []resource.Location
	for i := 0; i < nodes*perNode; i++ {
		locs = append(locs, resource.Location(fmt.Sprintf("l%d", i+1)))
	}
	// Four cpu units a tick at every location and one link unit a tick
	// between every ordered pair, so generated sends can be placed too.
	var theta resource.Set
	for _, a := range locs {
		theta.Add(resource.NewTerm(resource.FromUnits(4), resource.CPUAt(a), interval.New(0, 5000)))
		for _, b := range locs {
			if a != b {
				theta.Add(resource.NewTerm(resource.FromUnits(1), resource.Link(a, b), interval.New(0, 5000)))
			}
		}
	}
	tc := newTestCluster(t, nodes, perNode, 4, 5000, 50, func(c *Config) { c.Server.Theta = theta })
	one, err := server.New(server.Config{Policy: &admission.Rota{}, Theta: theta, Assure: assure.New("one")})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = one.Shutdown(context.Background()) })
	d := &differential{t: t, tc: tc, one: one, locs: locs,
		owner: make(map[resource.Location]int), shares: make(map[string]int)}
	for i, p := range tc.Members {
		for _, loc := range p.Locations {
			d.owner[loc] = i
		}
	}
	return d
}

// entry rotates the node each request enters the federation at.
func (d *differential) entry() int {
	d.entries++
	return d.entries % len(d.tc.Members)
}

// onOne serves one request on the standalone server.
func (d *differential) onOne(method, path string, v any) (int, []byte) {
	var body io.Reader
	if v != nil {
		b, err := json.Marshal(v)
		if err != nil {
			d.t.Fatal(err)
		}
		body = bytes.NewReader(b)
	}
	rec := httptest.NewRecorder()
	d.one.ServeHTTP(rec, httptest.NewRequest(method, path, body))
	return rec.Code, rec.Body.Bytes()
}

func runDifferential(t *testing.T, seed int64, steps int) {
	d := newDifferential(t)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < steps; i++ {
		var what string
		switch r := rng.Intn(100); {
		case r < 65:
			what = d.admit(d.drawJob(rng, seed, i))
		case r < 85:
			what = d.release(rng)
		default:
			d.now += interval.Time(1 + rng.Intn(8))
			what = d.advance()
		}
		d.compareAssure(fmt.Sprintf("step %d (%s)", i, what))
		d.compareQueries(fmt.Sprintf("step %d (%s)", i, what))
	}
	var coordinated, forwarded uint64
	for _, nd := range d.tc.Nodes() {
		coordinated += nd.coordinations.Load()
		forwarded += nd.forwarded.Load()
	}
	// A stream that never took one of the paths compared nothing there.
	if st := d.one.Stats(); coordinated == 0 || forwarded == 0 || st.Rejected == 0 || st.Released == 0 || st.Assure.Kept == 0 {
		t.Fatalf("stream left a path untried: %d coordinated, %d forwarded, %d refused, %d released, %d kept",
			coordinated, forwarded, st.Rejected, st.Released, st.Assure.Kept)
	}
}

// drawJob draws the next admit of the stream, its window opening now.
func (d *differential) drawJob(rng *rand.Rand, seed int64, i int) workload.Job {
	name := fmt.Sprintf("d%d-%d", seed, i)
	deadline := d.now + interval.Time(4+rng.Intn(36))
	switch r := rng.Intn(10); {
	case r < 5:
		// cluster_span's coordinated shape: two actors on two owners.
		a := d.locs[rng.Intn(len(d.locs))]
		b := a
		for d.owner[b] == d.owner[a] {
			b = d.locs[rng.Intn(len(d.locs))]
		}
		return stepsJob(d.t, name, d.now, deadline, []resource.Location{a, b}, []int{1 + rng.Intn(2), 1 + rng.Intn(2)})
	case r < 8:
		// One location, local or forwarded depending on the entry node.
		loc := d.locs[rng.Intn(len(d.locs))]
		return stepsJob(d.t, name, d.now, deadline, []resource.Location{loc}, []int{1 + rng.Intn(3)})
	default:
		jobs, err := workload.Generate(workload.Config{
			Seed: seed*1000 + int64(i), Locations: d.locs, NumJobs: 1,
			ActorsMin: 1, ActorsMax: 3, StepsMin: 1, StepsMax: 3,
			SendProb: 0.2, MigrateProb: 0.1, EvalWeightMax: 2, SlackFactor: 2,
		})
		if err != nil {
			d.t.Fatal(err)
		}
		job := jobs[0]
		job.Dist.Name = name
		job.Dist.Deadline += d.now - job.Dist.Start
		job.Dist.Start = d.now
		return job
	}
}

// stepsJob builds a job with one actor per location, actor i running
// steps[i] unit evaluates at locs[i], in the window (start, deadline).
func stepsJob(t testing.TB, name string, start, deadline interval.Time, locs []resource.Location, steps []int) workload.Job {
	t.Helper()
	var comps []compute.Computation
	for i, loc := range locs {
		actor := compute.ActorName(fmt.Sprintf("%s.a%d", name, i))
		var actions []compute.Action
		for s := 0; s < steps[i]; s++ {
			actions = append(actions, compute.Evaluate(actor, loc, 1))
		}
		c, err := cost.Realize(cost.Paper(), actor, actions...)
		if err != nil {
			t.Fatal(err)
		}
		comps = append(comps, c)
	}
	dist, err := compute.NewDistributed(name, start, deadline, comps...)
	if err != nil {
		t.Fatal(err)
	}
	return workload.Job{Dist: dist}
}

func (d *differential) admit(job workload.Job) string {
	at := d.entry()
	what := fmt.Sprintf("admit %s via %s", job.Dist.Name, d.tc.Members[at].ID)
	cs, cv := admitVerdict(d.t, d.tc.Members[at].URL, job)
	ss, ob := d.onOne(http.MethodPost, "/v1/admit", job)
	if cs != ss {
		d.t.Fatalf("%s: federation answered %d, one ledger %d (%s)", what, cs, ss, ob)
	}
	if ss != http.StatusOK {
		return what
	}
	var ov server.AdmitResponse
	if err := json.Unmarshal(ob, &ov); err != nil {
		d.t.Fatal(err)
	}
	if cv.Admit != ov.Admit || cv.Finish != ov.Finish {
		d.t.Fatalf("%s: federation admit=%v finish=%d (%s), one ledger admit=%v finish=%d (%s)",
			what, cv.Admit, cv.Finish, cv.Reason, ov.Admit, ov.Finish, ov.Reason)
	}
	if !ov.Admit {
		if cv.Provenance == nil || ov.Provenance == nil ||
			cv.Provenance.Stage != ov.Provenance.Stage || cv.Provenance.Constraint != ov.Provenance.Constraint {
			d.t.Fatalf("%s: refusals differ: federation %+v, one ledger %+v", what, cv.Provenance, ov.Provenance)
		}
		return what + " (refused)"
	}
	owners := map[int]bool{}
	for _, loc := range job.Dist.Locations() {
		owners[d.owner[loc]] = true
	}
	d.shares[job.Dist.Name] = len(owners)
	d.names = append(d.names, job.Dist.Name)
	return what
}

// release frees an admitted job, now and then one the ledger has
// already completed or one that never existed.
func (d *differential) release(rng *rand.Rand) string {
	name := "never-admitted"
	if len(d.names) > 0 && rng.Intn(8) > 0 {
		name = d.names[rng.Intn(len(d.names))]
	}
	at := d.entry()
	body := map[string]string{"name": name}
	cs, cb := post(d.t, d.tc.Members[at].URL+"/v1/release", body, nil)
	ss, ob := d.onOne(http.MethodPost, "/v1/release", body)
	if cs != ss {
		d.t.Fatalf("release %s via %s: federation answered %d (%s), one ledger %d (%s)",
			name, d.tc.Members[at].ID, cs, cb, ss, ob)
	}
	return "release " + name
}

func (d *differential) advance() string {
	at := d.entry()
	body := map[string]any{"now": d.now}
	cs, cb := post(d.t, d.tc.Members[at].URL+"/v1/cluster/advance", body, nil)
	ss, ob := d.onOne(http.MethodPost, "/v1/advance", body)
	if cs != http.StatusOK || ss != http.StatusOK {
		d.t.Fatalf("advance to %d: federation answered %d (%s), one ledger %d (%s)", d.now, cs, cb, ss, ob)
	}
	return fmt.Sprintf("advance to %d", d.now)
}

// compareAssure holds the federation's /v1/assure totals to the one
// ledger's promises. The federation sums per-node reports, and every
// owner holding a share of a coordinated job keeps a promise for it, so
// each of the one ledger's promises is expected once per share.
func (d *differential) compareAssure(when string) {
	var fed ClusterAssureResponse
	resp, err := http.Get(d.tc.Members[d.entries%len(d.tc.Members)].URL + "/v1/assure")
	if err != nil {
		d.t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&fed)
	resp.Body.Close()
	if err != nil {
		d.t.Fatal(err)
	}
	var rep assure.Report
	if status, body := d.onOne(http.MethodGet, "/v1/assure", nil); status != http.StatusOK || json.Unmarshal(body, &rep) != nil {
		d.t.Fatalf("%s: one ledger's /v1/assure answered %d %s", when, status, body)
	}
	var want, ones assure.Stats
	for _, name := range d.names {
		p, ok := d.one.Assure().Lookup(name)
		if !ok {
			d.t.Fatalf("%s: one ledger lost the promise of %s", when, name)
		}
		for _, c := range []struct {
			n     *uint64
			state string
		}{
			{&want.Active, assure.StateActive}, {&want.Kept, assure.StateKept},
			{&want.Violated, assure.StateViolated}, {&want.Orphaned, assure.StateOrphaned},
			{&want.EvictedWithJob, assure.StateEvicted}, {&want.Transferred, assure.StateTransferred},
		} {
			if p.State == c.state {
				*c.n += uint64(d.shares[name])
			}
		}
		if p.State == assure.StateActive {
			ones.Active++
		}
	}
	if rep.Stats.Active != ones.Active || rep.Stats.Violated != 0 || rep.Stats.Orphaned != 0 {
		d.t.Fatalf("%s: one ledger's report %+v disagrees with its own promises (%d active)", when, rep.Stats, ones.Active)
	}
	got := fed.Totals
	if got.Active != want.Active || got.Kept != want.Kept || got.Violated != want.Violated ||
		got.Orphaned != want.Orphaned || got.EvictedWithJob != want.EvictedWithJob || got.Transferred != want.Transferred {
		d.t.Fatalf("%s: federation promise totals active=%d kept=%d violated=%d orphaned=%d evicted=%d transferred=%d, want %d %d %d %d %d %d",
			when, got.Active, got.Kept, got.Violated, got.Orphaned, got.EvictedWithJob, got.Transferred,
			want.Active, want.Kept, want.Violated, want.Orphaned, want.EvictedWithJob, want.Transferred)
	}
}

// compareQueries enters two one-shot queries at the rotating node and
// holds each verdict, and the formula it was decided by, to the one
// ledger's EvalQuery: a holds whose footprint spans two owners, and
// feasible() of the latest live job with a share on two owners.
func (d *differential) compareQueries(when string) {
	a := d.locs[0]
	b := d.locs[len(d.locs)-1]
	if d.owner[a] == d.owner[b] {
		d.t.Fatalf("fixture: %s and %s share an owner", a, b)
	}
	qs := []string{fmt.Sprintf("holds(%s, cpu>=2, always, next 12) or holds(%s, cpu>=3, eventually, next 6)", a, b)}
	for i := len(d.names) - 1; i >= 0; i-- {
		if _, live := d.one.Ledger().Commitment(d.names[i]); live && d.shares[d.names[i]] > 1 {
			qs = append(qs, fmt.Sprintf("feasible(%s)", d.names[i]))
			break
		}
	}
	for _, q := range qs {
		c, err := query.ParseText(q)
		if err != nil {
			d.t.Fatal(err)
		}
		want, err := d.one.EvalQuery(c)
		if err != nil {
			d.t.Fatal(err)
		}
		at := d.entry()
		status, data := post(d.t, d.tc.Members[at].URL+"/v1/query", server.QueryRequest{Query: q}, nil)
		var got server.QueryResponse
		if status != http.StatusOK || json.Unmarshal(data, &got) != nil {
			d.t.Fatalf("%s: %s via %s answered %d %s", when, q, d.tc.Members[at].ID, status, data)
		}
		if got.Holds != want.Holds || got.Formula != want.Formula {
			d.t.Fatalf("%s: %s via %s: federation holds=%v by %s, one ledger holds=%v by %s",
				when, q, d.tc.Members[at].ID, got.Holds, got.Formula, want.Holds, want.Formula)
		}
	}
}
