package server

import (
	"sort"

	"repro/internal/obs"
)

// Prometheus exposition for the daemon core. Every stat reaches
// /metrics as a metric-tagged StatsResponse field, walked from the
// snapshot /v1/stats serves (an untagged number panics the walk). The
// explicit lines are the families that are not a stats scalar.

// CollectMetrics implements obs.Collector: it appends the daemon's
// families to the exposition. The cluster layer calls this too, so in
// cluster mode one scrape covers both layers.
func (s *Server) CollectMetrics(e *obs.Exposition) {
	st := s.Stats()
	e.Struct(st)

	bi := st.Build
	e.Gauge("rota_build_info", "Build metadata as labels; the value is always 1.",
		obs.L("go_version", bi.GoVersion).With("module", bi.Module).With("version", bi.Version), 1)
	e.Gauge("rota_workers", "Decision slots: admits that may decide at once.", nil, float64(s.cfg.Workers))

	outcomes := s.cfg.Assure.Locations()
	locs := make([]string, 0, len(outcomes))
	for loc := range outcomes {
		locs = append(locs, loc)
	}
	sort.Strings(locs)
	for _, loc := range locs {
		lo := outcomes[loc]
		e.Counter("rota_assure_location_promises_total", "Promise outcomes per footprint location.",
			obs.L("loc", loc).With("state", "kept"), float64(lo.Kept))
		e.Counter("rota_assure_location_promises_total", "",
			obs.L("loc", loc).With("state", "violated"), float64(lo.Violated))
		e.Gauge("rota_assure_location_attainment", "Per-location SLO attainment.",
			obs.L("loc", loc), lo.Attainment)
	}

	for _, es := range obs.SortedEndpoints(s.httpStats) {
		es.Collect(e, obs.L("layer", "server"))
	}
}
