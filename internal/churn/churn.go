// Package churn generates resource join/leave traffic for open-system
// experiments. In ROTA resources join carrying their departure time —
// "the time of leaving must be explicitly specified at the time of
// joining" — so a join is simply a resource set whose intervals end when
// the resource departs. Failure injection breaks that promise: a reneging
// resource withdraws before its advertised departure, which is the one
// way an admitted computation can be violated.
package churn

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/interval"
	"repro/internal/resource"
)

// Config parameterizes a churn trace.
type Config struct {
	// Seed fixes the random stream.
	Seed int64
	// Locations are the nodes contributing resources.
	Locations []resource.Location
	// Horizon is the trace length in ticks.
	Horizon interval.Time
	// MeanInterarrival is the mean gap between joins (exponential).
	MeanInterarrival float64
	// LeaseMin/Max bound how long a joining resource stays.
	LeaseMin, LeaseMax interval.Time
	// RateMin/Max bound the offered rate in whole units per tick.
	RateMin, RateMax int64
	// LinkProb is the probability a join is a network link rather than
	// node CPU (needs ≥ 2 locations).
	LinkProb float64
	// RenegeProb is the probability a join withdraws early — at a
	// uniformly random point of its lease — violating its advertisement.
	RenegeProb float64
	// Base is availability present for the whole horizon before any
	// churn (whole units per tick of CPU at every location); 0 for none.
	Base int64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if len(c.Locations) == 0 {
		return fmt.Errorf("churn: no locations")
	}
	if c.Horizon <= 0 {
		return fmt.Errorf("churn: non-positive horizon")
	}
	if c.MeanInterarrival <= 0 {
		return fmt.Errorf("churn: non-positive interarrival")
	}
	if c.LeaseMin < 1 || c.LeaseMax < c.LeaseMin {
		return fmt.Errorf("churn: bad lease bounds [%d,%d]", c.LeaseMin, c.LeaseMax)
	}
	if c.RateMin < 1 || c.RateMax < c.RateMin {
		return fmt.Errorf("churn: bad rate bounds [%d,%d]", c.RateMin, c.RateMax)
	}
	if c.LinkProb < 0 || c.LinkProb > 1 || c.RenegeProb < 0 || c.RenegeProb > 1 {
		return fmt.Errorf("churn: probabilities out of range")
	}
	return nil
}

// Join is one resource-acquisition event: at time At, Terms become known
// to the system (their intervals carry the advertised departure). If the
// resource reneges, Withdrawn is the availability it takes back and
// RenegeAt the time it does so.
type Join struct {
	At        interval.Time
	Terms     resource.Set
	RenegeAt  interval.Time
	Withdrawn resource.Set
}

// Reneges reports whether this join withdraws early.
func (j Join) Reneges() bool {
	return !j.Withdrawn.Empty()
}

// Trace is a churn trace: joins ordered by arrival time.
type Trace struct {
	Joins []Join
	// Base is the static availability configured, if any.
	Base resource.Set
}

// Generate produces a reproducible churn trace.
func Generate(cfg Config) (Trace, error) {
	if err := cfg.Validate(); err != nil {
		return Trace{}, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var tr Trace
	if cfg.Base > 0 {
		for _, loc := range cfg.Locations {
			tr.Base.Add(resource.NewTerm(
				resource.FromUnits(cfg.Base),
				resource.CPUAt(loc),
				interval.New(0, cfg.Horizon)))
		}
	}
	clock := 0.0
	for {
		clock += rng.ExpFloat64() * cfg.MeanInterarrival
		at := interval.Time(clock)
		if at >= cfg.Horizon {
			break
		}
		lease := cfg.LeaseMin + interval.Time(rng.Int63n(int64(cfg.LeaseMax-cfg.LeaseMin+1)))
		end := at + lease
		if end > cfg.Horizon {
			end = cfg.Horizon
		}
		rate := resource.FromUnits(cfg.RateMin + rng.Int63n(cfg.RateMax-cfg.RateMin+1))
		var lt resource.LocatedType
		if rng.Float64() < cfg.LinkProb && len(cfg.Locations) > 1 {
			src := cfg.Locations[rng.Intn(len(cfg.Locations))]
			dst := src
			for dst == src {
				dst = cfg.Locations[rng.Intn(len(cfg.Locations))]
			}
			lt = resource.Link(src, dst)
		} else {
			lt = resource.CPUAt(cfg.Locations[rng.Intn(len(cfg.Locations))])
		}
		term := resource.NewTerm(rate, lt, interval.New(at, end))
		if term.Null() {
			continue
		}
		join := Join{At: at, Terms: resource.NewSet(term)}
		if rng.Float64() < cfg.RenegeProb && end-at >= 2 {
			renegeAt := at + 1 + interval.Time(rng.Int63n(int64(end-at-1)))
			join.RenegeAt = renegeAt
			join.Withdrawn = resource.NewSet(resource.NewTerm(rate, lt, interval.New(renegeAt, end)))
		}
		tr.Joins = append(tr.Joins, join)
	}
	sort.SliceStable(tr.Joins, func(i, j int) bool { return tr.Joins[i].At < tr.Joins[j].At })
	return tr, nil
}
