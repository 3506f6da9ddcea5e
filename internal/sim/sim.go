// Package sim is the discrete-event simulator that closes the loop
// between ROTA's reasoning and ground truth. It drives an open system —
// resources joining and (possibly dishonestly) leaving, deadline-
// constrained jobs arriving — through one of two executors:
//
//   - Planned: the system maintains a ROTA state; admitted computations
//     carry witness plans and consumption follows them exactly (the
//     committed path of Theorems 3–4). This is the execution model under
//     which the paper's assurances are stated.
//
//   - GreedyEDF: no coordination; admitted jobs' actors share whatever is
//     available each tick, earliest deadline first. This is the execution
//     model available to admission baselines that produce no plan.
//
// The simulator reports admission, completion, deadline-miss and
// utilization statistics, making checker-vs-reality experiments (E3) and
// policy comparisons (E4, E5) one function call.
package sim

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/actor"
	"repro/internal/admission"
	"repro/internal/churn"
	"repro/internal/core"
	"repro/internal/interval"
	"repro/internal/resource"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Executor selects the execution model.
type Executor uint8

// The execution models.
const (
	// Planned follows admission witness plans (requires a plan-producing
	// policy such as admission.Rota).
	Planned Executor = iota + 1
	// GreedyEDF shares resources among admitted actors tick by tick,
	// earliest deadline first.
	GreedyEDF
)

// String names the executor.
func (e Executor) String() string {
	switch e {
	case Planned:
		return "planned"
	case GreedyEDF:
		return "greedy-edf"
	default:
		return fmt.Sprintf("Executor(%d)", uint8(e))
	}
}

// Config parameterizes a simulation run.
type Config struct {
	Policy   admission.Policy
	Executor Executor
	// DT is the paper's Δt; defaults to 1.
	DT interval.Time
	// Horizon overrides the automatic end time (max deadline / churn
	// horizon) when positive.
	Horizon interval.Time
	// Trace, when non-nil, receives structured events for every join,
	// renege, arrival, admission, rejection, completion, miss and
	// violation.
	Trace *trace.Log
	// Repair, in planned execution, re-plans commitments broken by
	// reneging resources against the remaining free capacity (the Φ
	// footnote's "revised as necessary"). Irreparable commitments are
	// dropped and counted as missed at the point of damage.
	Repair bool
}

// emit records an event when tracing is enabled.
func (c Config) emit(e trace.Event) {
	if c.Trace != nil {
		c.Trace.Add(e)
	}
}

// offer records job's arrival at t and decides it against view. A
// rejection is counted and traced with its typed provenance's fields,
// so span.Bridge copies them instead of parsing the reason.
func (res *Result) offer(cfg Config, t interval.Time, job workload.Job, view admission.View) (admission.Decision, resource.Quantity) {
	res.Offered++
	work := job.Dist.TotalQty()
	res.OfferedWork += work
	cfg.emit(trace.Event{At: t, Kind: trace.KindArrival, Job: job.Dist.Name, Quantity: work.Units()})
	dec := admission.Decide(cfg.Policy, view, job.Dist)
	res.Decisions++
	res.DecisionTime += dec.Elapsed
	if dec.Admit {
		return dec, work
	}
	res.Rejected++
	if cfg.Trace != nil {
		e := trace.Event{At: t, Kind: trace.KindReject, Job: job.Dist.Name, Detail: dec.Reason}
		if p := admission.Explain(dec.Refusal); p != nil {
			e.Stage, e.Constraint, e.Term, e.Window = p.Stage, p.Constraint, p.Term, p.Window
		}
		cfg.Trace.Add(e)
	}
	return dec, work
}

// Result aggregates one run.
type Result struct {
	Policy   string
	Executor string

	Offered  int
	Admitted int
	Rejected int
	// CompletedOnTime admitted jobs finished all work by their deadline
	// without violations.
	CompletedOnTime int
	// Missed admitted jobs either violated, finished late, or never
	// finished.
	Missed int

	// Violations counts per-tick plan violations (planned mode, under
	// reneging only).
	Violations int
	// Repaired counts commitments successfully re-planned after damage
	// (planned mode with Repair enabled).
	Repaired int

	// OfferedWork is the total work of all offered jobs; AdmittedWork of
	// admitted ones; GoodWork of jobs that completed on time (goodput).
	OfferedWork  resource.Quantity
	AdmittedWork resource.Quantity
	GoodWork     resource.Quantity

	// ConsumedQty and ExpiredQty partition the availability that passed
	// through the system; utilization = consumed / (consumed + expired).
	ConsumedQty resource.Quantity
	ExpiredQty  resource.Quantity

	// DecisionTime is the total wall-clock time spent in policy
	// decisions; Decisions the number made.
	DecisionTime time.Duration
	Decisions    int
}

// Utilization returns consumed / (consumed + expired), or 0.
func (r Result) Utilization() float64 {
	total := r.ConsumedQty + r.ExpiredQty
	if total == 0 {
		return 0
	}
	return float64(r.ConsumedQty) / float64(total)
}

// MissRate returns missed / admitted, or 0.
func (r Result) MissRate() float64 {
	if r.Admitted == 0 {
		return 0
	}
	return float64(r.Missed) / float64(r.Admitted)
}

// AdmitRate returns admitted / offered, or 0.
func (r Result) AdmitRate() float64 {
	if r.Offered == 0 {
		return 0
	}
	return float64(r.Admitted) / float64(r.Offered)
}

// GoodputRatio returns on-time completed work / offered work, or 0.
func (r Result) GoodputRatio() float64 {
	if r.OfferedWork == 0 {
		return 0
	}
	return float64(r.GoodWork) / float64(r.OfferedWork)
}

// ErrPlanlessAdmission is returned when a planned-execution run admits a
// job without a witness plan, or without the requirement it was planned
// for (Decision.Req), which the run accommodates as it stands.
var ErrPlanlessAdmission = errors.New("sim: planned executor needs a plan-producing policy")

// Run executes one simulation.
func Run(cfg Config, jobs []workload.Job, churnTrace churn.Trace) (Result, error) {
	if cfg.Policy == nil {
		return Result{}, errors.New("sim: no policy")
	}
	if cfg.DT <= 0 {
		cfg.DT = 1
	}
	cfg.Policy.Reset()
	horizon := cfg.Horizon
	if horizon <= 0 {
		for _, j := range jobs {
			if j.Dist.Deadline > horizon {
				horizon = j.Dist.Deadline
			}
		}
		for _, j := range churnTrace.Joins {
			if hull := j.Terms.Hull(); hull.End > horizon {
				horizon = hull.End
			}
		}
		if hull := churnTrace.Base.Hull(); hull.End > horizon {
			horizon = hull.End
		}
		horizon++
	}
	switch cfg.Executor {
	case GreedyEDF:
		return runGreedy(cfg, jobs, churnTrace, horizon)
	case Planned, 0:
		return runPlanned(cfg, jobs, churnTrace, horizon)
	default:
		return Result{}, fmt.Errorf("sim: unknown executor %v", cfg.Executor)
	}
}

// eventIndex buckets workload and churn events by tick.
type eventIndex struct {
	arrivals map[interval.Time][]workload.Job
	joins    map[interval.Time][]churn.Join
	reneges  map[interval.Time][]resource.Set
}

func indexEvents(jobs []workload.Job, churnTrace churn.Trace) eventIndex {
	idx := eventIndex{
		arrivals: make(map[interval.Time][]workload.Job),
		joins:    make(map[interval.Time][]churn.Join),
		reneges:  make(map[interval.Time][]resource.Set),
	}
	for _, j := range jobs {
		idx.arrivals[j.Arrival] = append(idx.arrivals[j.Arrival], j)
	}
	for _, j := range churnTrace.Joins {
		idx.joins[j.At] = append(idx.joins[j.At], j)
		if j.Reneges() {
			idx.reneges[j.RenegeAt] = append(idx.reneges[j.RenegeAt], j.Withdrawn)
		}
	}
	return idx
}

func runPlanned(cfg Config, jobs []workload.Job, churnTrace churn.Trace, horizon interval.Time) (Result, error) {
	res := Result{Policy: cfg.Policy.Name(), Executor: Planned.String()}
	idx := indexEvents(jobs, churnTrace)
	state := core.NewState(churnTrace.Base, 0)

	jobWork := make(map[string]resource.Quantity)
	violated := make(map[string]bool)
	deadlines := make(map[string]interval.Time)

	for now := interval.Time(0); now < horizon; now += cfg.DT {
		// Events fire on every tick of the step window (DT may skip some
		// when > 1; events are indexed per tick, so scan the window).
		for t := now; t < now+cfg.DT && t < horizon; t++ {
			for _, join := range idx.joins[t] {
				state, _ = core.Acquire(state, join.Terms)
				cfg.emit(trace.Event{At: t, Kind: trace.KindJoin, Detail: join.Terms.String()})
			}
			for _, withdrawn := range idx.reneges[t] {
				state.Theta = state.Theta.SubtractSaturating(withdrawn)
				cfg.emit(trace.Event{At: t, Kind: trace.KindRenege, Detail: withdrawn.String()})
			}
			for _, job := range idx.arrivals[t] {
				dec, work := res.offer(cfg, t, job, admission.View{Now: state.Now, Theta: state.Theta, State: &state})
				if !dec.Admit {
					continue
				}
				if dec.Plan == nil || dec.Req.Name != job.Dist.Name {
					return Result{}, ErrPlanlessAdmission
				}
				next, _, err := core.Accommodate(state, dec.Req, *dec.Plan)
				if err != nil {
					// The policy admitted but the state rejected the plan
					// (e.g. a renege raced the decision): count as reject.
					res.Rejected++
					continue
				}
				state = next
				res.Admitted++
				res.AdmittedWork += work
				jobWork[job.Dist.Name] = work
				deadlines[job.Dist.Name] = job.Dist.Deadline
				cfg.emit(trace.Event{At: t, Kind: trace.KindAdmit, Job: job.Dist.Name, Quantity: work.Units()})
			}
		}

		next, tr, viols := core.Tick(state, cfg.DT)
		res.Violations += len(viols)
		for _, v := range viols {
			violated[v.Computation] = true
			cfg.emit(trace.Event{At: v.At, Kind: trace.KindViolation, Job: v.Computation, Detail: v.Type.String()})
		}
		if cfg.Repair && len(viols) > 0 {
			victims := make(map[string]bool)
			for _, v := range viols {
				victims[v.Computation] = true
			}
			// A commitment that reached its plan finish this same tick has
			// already been accounted through tr.Completed (as a miss,
			// since it is violated); repairing or re-counting it would
			// double-book the job.
			for _, name := range tr.Completed {
				delete(victims, name)
			}
			for name := range victims {
				fixed, err := core.Repair(next, name, viols)
				if err != nil {
					// Irreparable: drop it now and count the miss.
					dropped, _, derr := core.Leave(fixed, name)
					if derr != nil {
						// Leave refuses started computations; excise directly.
						dropped = next.Clone()
						for i, c := range dropped.Commitments {
							if c.Name() == name {
								dropped.Commitments = append(dropped.Commitments[:i], dropped.Commitments[i+1:]...)
								break
							}
						}
					}
					next = dropped
					res.Missed++
					cfg.Policy.OnComplete(name)
					cfg.emit(trace.Event{At: next.Now, Kind: trace.KindMiss, Job: name, Detail: "irreparable"})
					continue
				}
				next = fixed
				res.Repaired++
				delete(violated, name) // the revised plan restores the assurance
			}
		}
		for _, c := range tr.Consumptions {
			res.ConsumedQty += resource.Quantity(c.Rate) * resource.Quantity(cfg.DT)
		}
		res.ExpiredQty += tr.Expired.TotalWithin(interval.New(tr.From, tr.To))
		for _, name := range tr.Completed {
			cfg.Policy.OnComplete(name)
			if violated[name] || next.Now > deadlines[name] {
				res.Missed++
				cfg.emit(trace.Event{At: next.Now, Kind: trace.KindMiss, Job: name})
			} else {
				res.CompletedOnTime++
				res.GoodWork += jobWork[name]
				cfg.emit(trace.Event{At: next.Now, Kind: trace.KindComplete, Job: name})
			}
		}
		state = next
	}
	// Whatever is still committed at the horizon never completed.
	res.Missed += len(state.Commitments)
	return res, nil
}

func runGreedy(cfg Config, jobs []workload.Job, churnTrace churn.Trace, horizon interval.Time) (Result, error) {
	if cfg.DT != 1 {
		return Result{}, errors.New("sim: greedy executor requires DT=1")
	}
	res := Result{Policy: cfg.Policy.Name(), Executor: GreedyEDF.String()}
	idx := indexEvents(jobs, churnTrace)

	rt := actor.NewRuntime(0)
	avail := churnTrace.Base.Clone()

	type jobState struct {
		tasks    []*actor.Task
		deadline interval.Time
		work     resource.Quantity
		finished bool
	}
	admitted := make(map[string]*jobState)

	for now := interval.Time(0); now < horizon; now++ {
		for _, join := range idx.joins[now] {
			avail = avail.Union(join.Terms)
			cfg.emit(trace.Event{At: now, Kind: trace.KindJoin, Detail: join.Terms.String()})
		}
		for _, withdrawn := range idx.reneges[now] {
			avail = avail.SubtractSaturating(withdrawn)
			cfg.emit(trace.Event{At: now, Kind: trace.KindRenege, Detail: withdrawn.String()})
		}
		for _, job := range idx.arrivals[now] {
			dec, work := res.offer(cfg, now, job, admission.View{Now: now, Theta: avail})
			if !dec.Admit {
				continue
			}
			js := &jobState{deadline: job.Dist.Deadline, work: work}
			spawnFailed := false
			for _, comp := range job.Dist.Actors {
				task := actor.NewTask(job.Dist.Name, comp, job.Dist.Deadline)
				if err := rt.Spawn(task); err != nil {
					spawnFailed = true
					break
				}
				js.tasks = append(js.tasks, task)
			}
			if spawnFailed {
				res.Rejected++
				continue
			}
			res.Admitted++
			res.AdmittedWork += work
			admitted[job.Dist.Name] = js
			cfg.emit(trace.Event{At: now, Kind: trace.KindAdmit, Job: job.Dist.Name, Quantity: work.Units()})
		}

		// Account expiry: availability for this tick that survives the
		// EDF pass is lost.
		tick := interval.New(now, now+1)
		before := avail.TotalWithin(tick)
		consumed := rt.TickEDF(&avail)
		var used resource.Quantity
		for _, c := range consumed {
			used += c.Qty
		}
		res.ConsumedQty += used
		res.ExpiredQty += before - used

		// Detect job completions.
		for name, js := range admitted {
			if js.finished {
				continue
			}
			done := true
			late := false
			for _, t := range js.tasks {
				if !t.Done() {
					done = false
					break
				}
				if t.DoneAt() > js.deadline {
					late = true
				}
			}
			switch {
			case done && !late:
				js.finished = true
				res.CompletedOnTime++
				res.GoodWork += js.work
				cfg.Policy.OnComplete(name)
				cfg.emit(trace.Event{At: rt.Now(), Kind: trace.KindComplete, Job: name})
			case done && late:
				js.finished = true
				res.Missed++
				cfg.Policy.OnComplete(name)
				cfg.emit(trace.Event{At: rt.Now(), Kind: trace.KindMiss, Job: name})
			case rt.Now() > js.deadline:
				// Past deadline with work outstanding: a definitive miss.
				js.finished = true
				res.Missed++
				cfg.Policy.OnComplete(name)
				cfg.emit(trace.Event{At: rt.Now(), Kind: trace.KindMiss, Job: name})
			}
		}
	}
	for _, js := range admitted {
		if !js.finished {
			res.Missed++
		}
	}
	return res, nil
}
