package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	neturl "net/url"
	"strconv"

	"repro/internal/compute"
	"repro/internal/cost"
	"repro/internal/interval"
	"repro/internal/resource"
	"repro/internal/workload"
)

// The generator. Everything the daemon sees is derived from (shape,
// seed): the same pair yields byte-identical request streams and labels.
// Only job *contents* depend on the seed; the positions of hopeless jobs
// and of queries in a stream are fixed, so the operation mix — and with
// it every per-operation average — is the same for every seed.

// shape fixes everything about a daemon workload except the seed.
type shape struct {
	name      string
	jobs      jobShape
	nodes     int   // 1 = one server.Server, 3 = a cluster.Node federation
	locs      int   // locations l1..lN
	cpuRate   int64 // Θ cpu units/tick at every location
	linkRate  int64 // Θ network units/tick on every directed link
	residents int   // live commitments preloaded before any request
	queries   bool  // 80 % one-shot queries + standing subscriptions
	subs      int   // standing subscriptions registered at set-up
	warmup    int   // requests sent before the measured run
}

const (
	horizon      = interval.Time(1 << 20) // Θ window, as benchAdmitLedger
	arrivalSpan  = 4096                   // job and resident starts fall in [0, arrivalSpan)
	residentSpan = 128                    // resident window width
	poolPerCli   = 2048                   // operations in one client's stream
	numClients   = 2                      // closed-loop clients = connections = nproc
)

// hopeless reports whether job i of a pool is hopeless by construction:
// one in ten, placed so that cluster_span (where i%10 < 7 selects the
// coordinated jobs) rejects on both its coordinated and forwarded paths.
func hopeless(i int) bool {
	return i%20 == 3 || i%20 == 17
}

// jobShape selects what a workload's jobs look like.
type jobShape uint8

const (
	jobsLight    jobShape = iota // one actor, 1–2 evaluates, one location
	jobsRotaload                 // workload.Generate: 2–3 actors × 2–4 steps with sends and migrates
	jobsSpan                     // 70 % two owners (coordinated), 30 % one remote owner (forwarded)
)

// daemonShapes lists the four daemon workloads. smoke shrinks the
// ledgers so the whole set boots in well under a second.
func daemonShapes(smoke bool) []shape {
	loaded, perLoc := 1000, 50
	if smoke {
		loaded, perLoc = 50, 8
	}
	return []shape{
		{name: "admit_light", jobs: jobsLight, nodes: 1, locs: 4, cpuRate: 64, linkRate: 1, warmup: 2000},
		{name: "admit_loaded", jobs: jobsRotaload, nodes: 1, locs: 4, cpuRate: 512, linkRate: 64, residents: loaded, warmup: 2000},
		{name: "query_mix", jobs: jobsRotaload, nodes: 1, locs: 4, cpuRate: 512, linkRate: 64, residents: loaded, queries: true, subs: 16, warmup: 2000},
		{name: "cluster_span", jobs: jobsSpan, nodes: 3, locs: 6, cpuRate: 512, linkRate: 64, residents: 6 * perLoc, warmup: 2000},
	}
}

func (sh shape) locations() []resource.Location {
	locs := make([]resource.Location, sh.locs)
	for i := range locs {
		locs[i] = resource.Location(fmt.Sprintf("l%d", i+1))
	}
	return locs
}

// ownerOf is the static location→node map cluster.PartitionLocations
// produces for l1..lN: round-robin over the nodes.
func (sh shape) ownerOf(loc resource.Location) int {
	i, _ := strconv.Atoi(string(loc)[1:]) // locations are l1..lN by construction
	return (i - 1) % sh.nodes
}

// theta is rotad's baseTheta: cpu at every location plus a full mesh of
// links, all over (0, horizon).
func (sh shape) theta() resource.Set {
	var theta resource.Set
	window := interval.New(0, horizon)
	locs := sh.locations()
	for _, loc := range locs {
		theta.Add(resource.NewTerm(resource.FromUnits(sh.cpuRate), resource.CPUAt(loc), window))
	}
	for _, src := range locs {
		for _, dst := range locs {
			if src != dst {
				theta.Add(resource.NewTerm(resource.FromUnits(sh.linkRate), resource.Link(src, dst), window))
			}
		}
	}
	return theta
}

// residentJobs are the preloaded commitments: one evaluate each, windows
// staggered so the shard profiles carry many segments
// (start = k·8 mod 4096, width 128, round-robin over locations).
func (sh shape) residentJobs() ([]workload.Job, error) {
	locs := sh.locations()
	jobs := make([]workload.Job, sh.residents)
	for k := range jobs {
		start := interval.Time((k * 8) % arrivalSpan)
		job, err := evalJob(fmt.Sprintf("pre%d", k), start, start+residentSpan, []resource.Location{locs[k%len(locs)]}, []int{1})
		if err != nil {
			return nil, err
		}
		jobs[k] = job
	}
	return jobs, nil
}

// evalJob builds a job with one actor per location, actor i running
// steps[i] unit-weight evaluates at locs[i].
func evalJob(name string, start, deadline interval.Time, locs []resource.Location, steps []int) (workload.Job, error) {
	actors := make([]compute.Computation, len(locs))
	for i, loc := range locs {
		actor := compute.ActorName(fmt.Sprintf("%s.a%d", name, i))
		actions := make([]compute.Action, steps[i])
		for s := range actions {
			actions[s] = compute.Evaluate(actor, loc, 1)
		}
		c, err := cost.Realize(cost.Paper(), actor, actions...)
		if err != nil {
			return workload.Job{}, err
		}
		actors[i] = c
	}
	d, err := compute.NewDistributed(name, start, deadline, actors...)
	if err != nil {
		return workload.Job{}, err
	}
	return workload.Job{Dist: d, Arrival: start}, nil
}

type opKind uint8

const (
	opAdmit opKind = iota
	opQueryGet
	opQueryPost
)

// op is one generated request with the answer the generator expects.
type op struct {
	kind   opKind
	expect bool // admit verdict, or query "holds"
	// entry is the node the request is posted to (always 0 on a single
	// server).
	entry int

	// Admits: the job, its wire body and the body of its release.
	job     workload.Job
	body    []byte
	release []byte

	// Queries: the text, and how it travels (GET path or POST body).
	query string
	path  string
}

// makeHopeless scales the job's first step past Θ × window, so no
// schedule exists even on an empty ledger and two clients interleaving
// cannot change the verdict.
func (sh shape) makeHopeless(job *workload.Job) {
	rate := sh.cpuRate
	if sh.linkRate > rate {
		rate = sh.linkRate
	}
	window := int64(job.Dist.Deadline - job.Dist.Start)
	st := job.Dist.Actors[0].Steps[0]
	for lt := range st.Amounts {
		st.Amounts[lt] = resource.QuantityFromUnits(2 * rate * window)
	}
}

// genJobs generates n jobs of the workload's shape; job i is hopeless iff
// hopeless(i), the rest are comfortable.
func (sh shape) genJobs(seed int64, n int) ([]workload.Job, []int, error) {
	rng := rand.New(rand.NewSource(seed))
	locs := sh.locations()
	jobs := make([]workload.Job, n)
	entries := make([]int, n)
	switch sh.jobs {
	case jobsSpan:
		// 70 % two-actor jobs spanning two owners (coordinated two-phase),
		// 30 % single-location jobs posted to a non-owner (forwarded).
		// Entry nodes rotate; the footprint is drawn around the entry.
		for i := range jobs {
			entry := i % sh.nodes
			entries[i] = entry
			start := interval.Time(rng.Intn(arrivalSpan))
			name := fmt.Sprintf("job-%d", i)
			var err error
			if i%10 < 7 {
				a := locs[rng.Intn(len(locs))]
				b := a
				for sh.ownerOf(b) == sh.ownerOf(a) {
					b = locs[rng.Intn(len(locs))]
				}
				steps := []int{1 + rng.Intn(2), 1 + rng.Intn(2)}
				jobs[i], err = evalJob(name, start, start+49, []resource.Location{a, b}, steps)
			} else {
				loc := locs[rng.Intn(len(locs))]
				for sh.ownerOf(loc) == entry {
					loc = locs[rng.Intn(len(locs))]
				}
				jobs[i], err = evalJob(name, start, start+49, []resource.Location{loc}, []int{1 + rng.Intn(2)})
			}
			if err != nil {
				return nil, nil, err
			}
		}
	case jobsLight:
		for i := range jobs {
			start := interval.Time(rng.Intn(arrivalSpan))
			steps := 1 + rng.Intn(2)
			var err error
			jobs[i], err = evalJob(fmt.Sprintf("job-%d", i), start, start+interval.Time(24*steps+1),
				[]resource.Location{locs[rng.Intn(len(locs))]}, []int{steps})
			if err != nil {
				return nil, nil, err
			}
		}
	case jobsRotaload:
		var err error
		jobs, err = workload.Generate(workload.Config{
			Seed:             seed,
			Locations:        locs,
			NumJobs:          n,
			MeanInterarrival: float64(arrivalSpan) / float64(n),
			ActorsMin:        2,
			ActorsMax:        3,
			StepsMin:         2,
			StepsMax:         4,
			SendProb:         0.2,
			MigrateProb:      0.05,
			EvalWeightMax:    3,
			SlackFactor:      3,
		})
		if err != nil {
			return nil, nil, err
		}
	}
	for i := range jobs {
		if hopeless(i) {
			sh.makeHopeless(&jobs[i])
		}
	}
	return jobs, entries, nil
}

// streams builds the per-client operation streams. Client c owns its own
// contiguous half of one job pool, so no job name is ever in flight twice.
func (sh shape) streams(seed int64) ([numClients][]op, error) {
	var out [numClients][]op
	nJobs := numClients * poolPerCli
	jobs, entries, err := sh.genJobs(seed, nJobs)
	if err != nil {
		return out, err
	}
	// Queries draw from their own stream so admit jobs are the same with
	// and without them.
	qrng := rand.New(rand.NewSource(seed ^ 0x5eed))
	locs := sh.locations()
	for c := range out {
		ops := make([]op, 0, poolPerCli)
		next := c * poolPerCli // next job index this client owns
		for i := 0; i < poolPerCli; i++ {
			if sh.queries && i%5 != 4 {
				ops = append(ops, sh.queryOp(qrng, locs, i))
				continue
			}
			job := jobs[next]
			body, err := json.Marshal(job)
			if err != nil {
				return out, err
			}
			rel, err := json.Marshal(map[string]string{"name": job.Dist.Name})
			if err != nil {
				return out, err
			}
			ops = append(ops, op{kind: opAdmit, expect: !hopeless(next),
				entry: entries[next], job: job, body: body, release: rel})
			next++
		}
		out[c] = ops
	}
	return out, nil
}

// queryOp alternates a GET holds() probe of the free view with a POST
// feasible() probe of a resident; one in ten of each is false by
// construction (a threshold above Θ, a name that was never admitted).
func (sh shape) queryOp(rng *rand.Rand, locs []resource.Location, i int) op {
	falsy := rng.Intn(10) == 0
	if i%2 == 0 {
		k := 1 + rng.Int63n(sh.cpuRate/8)
		if falsy {
			k = 2 * sh.cpuRate
		}
		q := fmt.Sprintf("holds(%s, cpu>=%d, always, next 30)", locs[rng.Intn(len(locs))], k)
		return op{kind: opQueryGet, expect: !falsy, query: q, path: "/v1/query?q=" + neturl.QueryEscape(q)}
	}
	name := fmt.Sprintf("pre%d", rng.Intn(sh.residents))
	if falsy {
		name = fmt.Sprintf("ghost%d", rng.Intn(sh.residents))
	}
	q := fmt.Sprintf("feasible(%s, before deadline)", name)
	body, _ := json.Marshal(map[string]string{"query": q}) // a map of strings cannot fail to encode
	return op{kind: opQueryPost, expect: !falsy, query: q, body: body}
}

// standingQueries are the subscriptions query_mix registers: half watch
// the free view of a location over the whole resident span, half the
// feasibility of a resident.
func (sh shape) standingQueries() []string {
	locs := sh.locations()
	out := make([]string, sh.subs)
	for i := range out {
		if i%2 == 0 {
			out[i] = fmt.Sprintf("holds(%s, cpu>=%d, always, next %d)", locs[(i/2)%len(locs)], sh.cpuRate/16*int64(i/2+1), arrivalSpan)
		} else {
			out[i] = fmt.Sprintf("feasible(pre%d, before deadline)", (i*37)%sh.residents)
		}
	}
	return out
}
