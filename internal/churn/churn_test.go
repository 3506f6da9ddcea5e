package churn

import (
	"testing"

	"repro/internal/interval"
	"repro/internal/resource"
)

func baseConfig() Config {
	return Config{
		Seed:             5,
		Locations:        []resource.Location{"l1", "l2"},
		Horizon:          200,
		MeanInterarrival: 4,
		LeaseMin:         5,
		LeaseMax:         30,
		RateMin:          1,
		RateMax:          4,
		LinkProb:         0.3,
		RenegeProb:       0,
		Base:             0,
	}
}

func TestGenerateDeterministicAndOrdered(t *testing.T) {
	a, err := Generate(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Joins) == 0 {
		t.Fatal("no joins generated")
	}
	if len(a.Joins) != len(b.Joins) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Joins), len(b.Joins))
	}
	var prev interval.Time = -1
	for i := range a.Joins {
		if !a.Joins[i].Terms.Equal(b.Joins[i].Terms) || a.Joins[i].At != b.Joins[i].At {
			t.Fatalf("join %d differs between identical seeds", i)
		}
		if a.Joins[i].At < prev {
			t.Fatalf("join %d out of order", i)
		}
		prev = a.Joins[i].At
	}
}

func TestJoinsRespectHorizonAndLease(t *testing.T) {
	cfg := baseConfig()
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range tr.Joins {
		if j.At < 0 || j.At >= cfg.Horizon {
			t.Errorf("join %d at %d outside horizon", i, j.At)
		}
		for _, term := range j.Terms.Terms() {
			if term.Span.Start != j.At {
				t.Errorf("join %d term starts at %d, not %d", i, term.Span.Start, j.At)
			}
			if term.Span.End > cfg.Horizon {
				t.Errorf("join %d term outlives horizon", i)
			}
			if lease := term.Span.Len(); lease > cfg.LeaseMax {
				t.Errorf("join %d lease %d exceeds max", i, lease)
			}
			units := int64(term.Rate / resource.Unit)
			if units < cfg.RateMin || units > cfg.RateMax {
				t.Errorf("join %d rate %d outside bounds", i, units)
			}
		}
		if j.Reneges() {
			t.Errorf("join %d reneges with RenegeProb=0", i)
		}
	}
}

func TestRenegeInjection(t *testing.T) {
	cfg := baseConfig()
	cfg.RenegeProb = 1
	cfg.LeaseMin = 4 // long enough that every join can renege
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reneges := 0
	for i, j := range tr.Joins {
		if !j.Reneges() {
			continue
		}
		reneges++
		if j.RenegeAt <= j.At {
			t.Errorf("join %d reneges at %d, before it joined at %d", i, j.RenegeAt, j.At)
		}
		// The withdrawn set must be a suffix of what was advertised.
		for _, w := range j.Withdrawn.Terms() {
			if w.Span.Start != j.RenegeAt {
				t.Errorf("join %d withdrawal starts at %d, not renege time %d", i, w.Span.Start, j.RenegeAt)
			}
			if j.Terms.MinRate(w.Type, w.Span) < w.Rate {
				t.Errorf("join %d withdraws %v it never advertised", i, w)
			}
		}
	}
	if reneges == 0 {
		t.Error("RenegeProb=1 produced no reneges")
	}
}

func TestBaseResources(t *testing.T) {
	cfg := baseConfig()
	cfg.Base = 3
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, loc := range cfg.Locations {
		if got := tr.Base.MinRate(resource.CPUAt(loc), interval.New(100, 101)); got != resource.FromUnits(3) {
			t.Errorf("base rate at %s = %d", loc, got)
		}
	}
	// Base contributes horizon × rate × locations at minimum.
	minBase := resource.QuantityFromUnits(3 * int64(cfg.Horizon) * 2)
	if got := tr.Base.TotalWithin(interval.New(0, cfg.Horizon)); got < minBase {
		t.Errorf("base offers %d, below horizon × rate × locations %d", got, minBase)
	}
}

func TestLinkJoins(t *testing.T) {
	cfg := baseConfig()
	cfg.LinkProb = 1
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	links := 0
	for _, j := range tr.Joins {
		for _, term := range j.Terms.Terms() {
			if term.Type.IsLink() {
				links++
				if term.Type.Loc == term.Type.Dst {
					t.Errorf("self-link %v", term.Type)
				}
			}
		}
	}
	if links == 0 {
		t.Error("LinkProb=1 produced no link joins")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Locations = nil },
		func(c *Config) { c.Horizon = 0 },
		func(c *Config) { c.MeanInterarrival = 0 },
		func(c *Config) { c.LeaseMin = 0 },
		func(c *Config) { c.LeaseMax = 1; c.LeaseMin = 2 },
		func(c *Config) { c.RateMin = 0 },
		func(c *Config) { c.RateMax = 0 },
		func(c *Config) { c.LinkProb = 1.5 },
		func(c *Config) { c.RenegeProb = -0.2 },
	}
	for i, mutate := range bad {
		cfg := baseConfig()
		mutate(&cfg)
		if _, err := Generate(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}
