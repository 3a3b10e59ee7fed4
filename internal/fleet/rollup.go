package fleet

import (
	"time"

	"reqlens/internal/sim"
	"reqlens/internal/telemetry"
)

// Sample is one node's scraped, decoded export.
type Sample struct {
	At sim.Time // sim instant the scrape completed (includes jitter)

	// Metrics is the name/value view telemetry.Series.Decode
	// reconstructs from the node's Prometheus text. The round-trip is
	// lossless (telemetry.AppendProm pins the formatting), so these
	// equal the exporter's values bit-for-bit. The node's next
	// successful scrape decodes into the same storage.
	Metrics telemetry.Series
}

// NodeStat is one node's entry in a rollup ranking.
type NodeStat struct {
	Node       int
	ObsvRPS    float64
	Saturation float64 // observed RPS / the node's nominal failure RPS
	SendVarUS2 float64
	PollMeanNS float64
}

// Rollup is the cluster-level view of one scrape epoch, computed purely
// from scraped samples — no ground truth. Nodes whose last successful
// scrape is older than the staleness bound contribute nothing: they are
// listed in Stale and excluded from every sum and ranking, following
// the repo's gap convention (missing data is reported missing, never
// zero-filled — a zero RPS from a silent node would read as an outage
// that never happened).
type Rollup struct {
	Epoch int
	At    sim.Time // nominal epoch instant (before per-node jitter)

	// GlobalObsvRPS sums the fresh nodes' observed RPS — the cluster
	// throughput the in-kernel plane reports.
	GlobalObsvRPS float64

	// MeanSaturation averages fresh nodes' saturation.
	MeanSaturation float64

	// SaturatedNodes counts fresh nodes at or past saturationThreshold.
	SaturatedNodes int

	// Fresh counts nodes contributing to this rollup; Stale lists the
	// node IDs excluded for staleness, in ID order. Missed counts the
	// scrapes that failed *this epoch* (a missed scrape only becomes a
	// stale mark once the node's last good sample ages past the bound).
	Fresh  int
	Stale  []int `json:",omitempty"`
	Missed int

	// TopSaturated and TopNoisy rank the fresh nodes by saturation and
	// by send-delta variance (the paper's Eq. 2 signal — the "noisy
	// node" fingerprint). Ties break by node ID, so rankings are stable
	// across runs and worker counts.
	TopSaturated []NodeStat `json:",omitempty"`
	TopNoisy     []NodeStat `json:",omitempty"`
}

// saturationThreshold is the observed-saturation level at which a node
// counts as saturated in rollups. Slightly under 1.0: the send-rate
// estimate flattens at capacity, and the paper's failure points sit at
// the knee rather than past it.
const saturationThreshold = 0.9

// rollupTopK is the length of each rollup ranking.
const rollupTopK = 3

// computeRollup folds the nodes' freshest samples into one epoch
// rollup. A node is stale when it has never been scraped or when its
// last successful sample is older than the staleness bound at the
// epoch's nominal instant. Nodes are folded in ID order, so float sums
// are bit-stable at any worker count.
func computeRollup(epoch int, at sim.Time, nodes []*Node, missed int, staleness time.Duration) Rollup {
	r := Rollup{Epoch: epoch, At: at, Missed: missed}
	k := min(rollupTopK, len(nodes)) // a ranking holds no more than the fleet
	for _, n := range nodes {
		if !n.lastOK || at.Sub(n.last.At) > staleness {
			r.Stale = append(r.Stale, n.ID)
			continue
		}
		st := NodeStat{Node: n.ID}
		for i, name := range n.last.Metrics.Names {
			v := n.last.Metrics.Values[i]
			switch name {
			case metricObsvRPS:
				st.ObsvRPS = v
			case metricSaturation:
				st.Saturation = v
			case metricSendVarUS2:
				st.SendVarUS2 = v
			case metricPollMeanNS:
				st.PollMeanNS = v
			}
		}
		r.Fresh++
		r.GlobalObsvRPS += st.ObsvRPS
		r.MeanSaturation += st.Saturation
		if st.Saturation >= saturationThreshold {
			r.SaturatedNodes++
		}
		r.TopSaturated = rank(r.TopSaturated, k, st, func(a, b NodeStat) bool { return a.Saturation > b.Saturation })
		r.TopNoisy = rank(r.TopNoisy, k, st, func(a, b NodeStat) bool { return a.SendVarUS2 > b.SendVarUS2 })
	}
	if r.Fresh > 0 {
		r.MeanSaturation /= float64(r.Fresh)
	}
	return r
}

// rank inserts st into top, a ranking of at most k stats held best
// first under better (a strict "better-than" order), ties broken by
// node ID for run-to-run stability.
func rank(top []NodeStat, k int, st NodeStat, better func(a, b NodeStat) bool) []NodeStat {
	i := len(top)
	for i > 0 && (better(st, top[i-1]) || !better(top[i-1], st) && st.Node < top[i-1].Node) {
		i--
	}
	if i == k {
		return top
	}
	if top == nil {
		top = make([]NodeStat, 0, k)
	}
	if len(top) < k {
		top = append(top, st)
	}
	copy(top[i+1:], top[i:])
	top[i] = st
	return top
}
