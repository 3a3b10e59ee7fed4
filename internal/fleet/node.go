package fleet

import (
	"math/rand"
	"time"

	"reqlens/internal/faults"
	"reqlens/internal/harness"
	"reqlens/internal/probes"
	"reqlens/internal/sim"
	"reqlens/internal/telemetry"
	"reqlens/internal/workloads"
)

// NodeSpec describes one cluster member. Heterogeneity is per-node:
// each member picks its own workload, load weight and (optionally) a
// fault plan. Every node runs on the AMD profile (Table I).
type NodeSpec struct {
	// Workload is the served application. Its FailureRPS is the node's
	// nominal capacity; the cluster's open-loop load splits
	// proportionally to it.
	Workload workloads.Spec

	// Weight scales the node's share of the offered load relative to
	// its capacity: 1 (the default for 0) is a fair share, >1 makes
	// this a hot node driven past its proportional allocation while the
	// rest of the fleet stays at the nominal level.
	Weight float64

	// Plan is a fault-injection schedule armed on this node after
	// warmup. The zero Plan leaves the node unfaulted. A plan carrying
	// a netem config shapes this node's link for the whole run.
	Plan faults.Plan
}

// weight resolves the default load share.
func (s NodeSpec) weight() float64 {
	if s.Weight <= 0 {
		return 1
	}
	return s.Weight
}

// DefaultSpecs returns n heterogeneous node specs cycling through the
// cheap tailbench workloads — the mix the fleet subcommand and the
// benchmarks simulate.
func DefaultSpecs(n int) []NodeSpec {
	mix := []workloads.Spec{
		workloads.Silo(), workloads.ImgDNN(), workloads.Xapian(),
		workloads.SpecJBB(), workloads.Moses(),
	}
	specs := make([]NodeSpec, n)
	for i := range specs {
		specs[i] = NodeSpec{Workload: mix[i%len(mix)]}
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

	// Wait-state shares of the server's scheduler-accounted time in the
	// scrape window. Exported only when the cluster runs with
	// Options.WaitStates; rollups treat their absence as "signal not
	// deployed", not as zeros.
	metricWaitOnCPU    = "node_wait_oncpu_share"
	metricWaitRunnable = "node_wait_runnable_share"
	metricWaitBlocked  = "node_wait_blocked_share"
)

// Node is one cluster member: a harness.Rig (server node + co-located
// load generator, the paper's single-host setup) on a private
// simulation timeline, plus the scrape-plane state the aggregation
// layer keeps about it.
type Node struct {
	ID   int
	Spec NodeSpec

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
	waitOnCPU, waitRunnable, waitBlocked            *telemetry.FloatGauge // nil without Rig.Wait
	scrapes, sends                                  *telemetry.Counter
	scratch                                         []byte

	// Scrape-plane state: the last successful scrape's decoded sample
	// and sim instant, and the running miss count.
	last   Sample
	lastOK bool
	missed int

	// Sketch-plane state: the last successful scrape's attribution
	// sketches (cloned at scrape time, so rollup merges never touch
	// live probe maps). Only populated when Options.Attribution is on.
	lastAttr   probes.AttrSketches
	lastAttrOK bool
}

// newNode builds one member: its environment, rig and per-node
// registry. level is the cluster load level; the node's offered rate is
// level * FailureRPS * weight.
func newNode(id int, spec NodeSpec, seed int64, level float64, clock *sim.Clock, attribution, waitStates bool) *Node {
	reg := telemetry.New()
	rate := level * spec.Workload.FailureRPS * spec.weight()
	netem := spec.Plan.Netem // link shaping is a whole-run property
	rig := harness.NewRig(spec.Workload, harness.RigOptions{
		Seed:        seed,
		Netem:       netem,
		Rate:        rate,
		Probes:      true,
		Attribution: attribution,
		WaitStates:  waitStates,
		Telemetry:   reg,
		Clock:       clock,
	})
	n := &Node{
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
	if rig.Wait != nil {
		n.waitOnCPU = reg.FloatGauge(metricWaitOnCPU)
		n.waitRunnable = reg.FloatGauge(metricWaitRunnable)
		n.waitBlocked = reg.FloatGauge(metricWaitBlocked)
	}
	return n
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
	n.saturation.Set(w.Send.RatePerSec / n.Spec.Workload.FailureRPS)
	if n.Rig.Wait != nil {
		on, run, blk := n.Rig.Wait.Sample().Shares()
		n.waitOnCPU.Set(on)
		n.waitRunnable.Set(run)
		n.waitBlocked.Set(blk)
	}
	n.scrapes.Inc()
	n.sends.Add(w.Send.Calls)
	n.scratch = n.Rig.Reg.AppendProm(n.scratch[:0])
	return n.scratch
}

// Truth is one node's ground-truth view at the end of a run — the
// client-side measurements the in-kernel aggregation plane cannot see.
type Truth struct {
	Node    int
	RealRPS float64
	P99     time.Duration
	QoSFail bool
}

// Truth snapshots the node's client-side ground truth.
func (n *Node) Truth() Truth {
	res := n.Rig.Client.Snapshot()
	return Truth{
		Node:    n.ID,
		RealRPS: res.RealRPS,
		P99:     res.P99,
		QoSFail: res.P99 > n.Spec.Workload.QoS,
	}
}
