package fleet

import (
	"math/rand"

	"reqlens/internal/harness"
	"reqlens/internal/sim"
	"reqlens/internal/telemetry"
	"reqlens/internal/workloads"
)

// DefaultSpecs returns n heterogeneous node workloads cycling through
// the cheap tailbench workloads — the mix the fleet subcommand and the
// benchmarks simulate.
func DefaultSpecs(n int) []workloads.Spec {
	mix := []workloads.Spec{
		workloads.Silo(), workloads.ImgDNN(), workloads.Xapian(),
		workloads.SpecJBB(), workloads.Moses(),
	}
	specs := make([]workloads.Spec, n)
	for i := range specs {
		specs[i] = mix[i%len(mix)]
	}
	return specs
}

// Per-node metric names the exporter publishes on top of the rig's
// hot-path instruments. The scraper reads these back by name when
// computing rollups, so they are constants rather than inline strings.
const (
	metricObsvRPS    = "node_obsv_rps"
	metricSendVarUS2 = "node_send_var_us2"
	metricRecvVarUS2 = "node_recv_var_us2"
	metricPollMeanNS = "node_poll_mean_ns"
	metricSaturation = "node_saturation"
	metricScrapes    = "node_scrapes_total"
	metricSends      = "node_sends_total"
)

// Node is one cluster member: a harness.Rig (server node + co-located
// load generator, the paper's single-host setup) on a private
// simulation timeline, plus the scrape-plane state the aggregation
// layer keeps about it.
type Node struct {
	ID   int
	Spec workloads.Spec // the served application; FailureRPS is its capacity

	// Rig is the member's full single-node experiment. Rig.Reg is the
	// node's metrics registry — its "exporter endpoint".
	Rig *harness.Rig

	// rng drives this node's scrape-plane randomness (scrape-time
	// jitter, scrape misses). It is private to the node and consumed in
	// a fixed per-epoch order, so its sequence — and therefore every
	// scrape decision — is independent of lockstep worker scheduling.
	rng *rand.Rand

	// Exporter state: the node_* instruments, resolved once, and the
	// scratch buffer every export is encoded into.
	obsvRPS, sendVar, recvVar, pollMean, saturation *telemetry.FloatGauge
	scrapes, sends                                  *telemetry.Counter
	scratch                                         []byte

	// Scrape-plane state: the last successful scrape's decoded sample
	// and sim instant, and the running miss count.
	last   Sample
	lastOK bool
	missed int
}

// newNode builds one member: its environment, rig and per-node
// registry. level is the cluster load level; the node's offered rate is
// level * FailureRPS.
func newNode(id int, spec workloads.Spec, seed int64, level float64, clock *sim.Clock) *Node {
	reg := telemetry.New()
	rig := harness.NewRig(spec, harness.RigOptions{
		Seed:      seed,
		Rate:      level * spec.FailureRPS,
		Probes:    true,
		Telemetry: reg,
		Clock:     clock,
	})
	return &Node{
		ID:   id,
		Spec: spec,
		Rig:  rig,
		rng:  rand.New(rand.NewSource(seed ^ 0x5eed1e7)),

		obsvRPS:    reg.FloatGauge(metricObsvRPS),
		sendVar:    reg.FloatGauge(metricSendVarUS2),
		recvVar:    reg.FloatGauge(metricRecvVarUS2),
		pollMean:   reg.FloatGauge(metricPollMeanNS),
		saturation: reg.FloatGauge(metricSaturation),
		scrapes:    reg.Counter(metricScrapes),
		sends:      reg.Counter(metricSends),
	}
}

// Export samples the node's observer into its registry and serializes
// the registry in Prometheus text format into the node's export buffer,
// which it returns, valid until the next Export. The observer window
// spans the time since the previous successful scrape (missed scrapes
// leave it accumulating, like a real exporter whose caller went away).
func (n *Node) Export() []byte {
	w := n.Rig.Obs.Sample()
	n.obsvRPS.Set(w.Send.RatePerSec)
	n.sendVar.Set(w.Send.VarianceUS2)
	n.recvVar.Set(w.Recv.VarianceUS2)
	n.pollMean.Set(float64(w.Poll.MeanDuration))
	n.saturation.Set(w.Send.RatePerSec / n.Spec.FailureRPS)
	n.scrapes.Inc()
	n.sends.Add(w.Send.Calls)
	n.scratch = n.Rig.Reg.AppendProm(n.scratch[:0])
	return n.scratch
}

// Truth is one node's ground-truth view at the end of a run — the
// client-side measurements the in-kernel aggregation plane cannot see.
type Truth struct {
	RealRPS float64
	QoSFail bool
}

// Truth snapshots the node's client-side ground truth.
func (n *Node) Truth() Truth {
	res := n.Rig.Client.Snapshot()
	return Truth{RealRPS: res.RealRPS, QoSFail: res.P99 > n.Spec.QoS}
}
