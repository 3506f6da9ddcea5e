package cluster

import (
	"time"

	"repro/internal/obs"
)

// Prometheus exposition for the federation layer. Every counter reaches
// /metrics as a metric-tagged ClusterCounters field, walked like the
// server's StatsResponse. The explicit lines are the families that are
// not a ClusterCounters scalar: membership size and the per-peer φ and
// RPC tables. A coordinated admit is counted and timed by the server's
// own decision families.

// CollectMetrics implements obs.Collector: the embedded server's
// families first, then the federation layer's. One scrape of a cluster
// node therefore covers both layers; shared HTTP families are
// disambiguated by the layer label.
func (n *Node) CollectMetrics(e *obs.Exposition) {
	n.srv.CollectMetrics(e)

	e.Struct(n.counters())

	peers := n.peersSnapshot()
	e.Gauge("rota_cluster_peers", "Live cluster membership size, including self.", nil, float64(len(peers)))

	now := time.Now()
	for _, id := range n.detector.Peers() {
		e.Gauge("rota_health_phi", "Current φ-accrual suspicion level, by peer (0 = freshly heard from).",
			obs.L("peer", id), n.detector.Phi(id, now))
	}

	for _, ps := range peers {
		if ps.isSelf {
			continue
		}
		base := obs.L("peer", ps.ID)
		sum := ps.rpc.Summary()
		for _, oc := range []struct {
			outcome string
			n       uint64
		}{{"ok", sum.OK}, {"error", sum.Errors}, {"timeout", sum.Timeouts}} {
			e.Counter("rota_cluster_peer_rpc_total", "Peer RPCs issued, by peer and outcome.",
				base.With("outcome", oc.outcome), float64(oc.n))
		}
		e.Counter("rota_cluster_peer_rpc_retries_total", "Retry attempts spent on peer RPCs, by peer.", base, float64(sum.Retries))
		e.Summary("rota_cluster_peer_rpc_latency_us", "Peer RPC latency in microseconds (all attempts of a logical call), by peer.",
			base, ps.rpc.LatencySummary())
	}

	for _, es := range obs.SortedEndpoints(n.httpStats) {
		es.Collect(e, obs.L("layer", "cluster"))
	}
}
