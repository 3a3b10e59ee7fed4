package fleet

import (
	"fmt"
	"time"

	"reqlens/internal/sim"
	"reqlens/internal/telemetry"
)

// ScrapeConfig parameterizes the aggregation plane's pull loop.
type ScrapeConfig struct {
	// Interval is the nominal scrape period (0 defaults to 250ms of
	// simulated time).
	Interval time.Duration

	// Skew bounds the per-node, per-epoch scrape-time jitter: node i's
	// epoch-k scrape lands at nominal + U[0, Skew], modeling scraper
	// fan-out and clock skew between targets. 0 defaults to
	// Interval/10; negative disables jitter.
	Skew time.Duration

	// Staleness is the maximum sample age before a node is marked
	// stale and excluded from rollups (explicit gap, never zero-fill).
	// 0 defaults to 2*Interval + Skew: one missed scrape leaves the
	// previous sample usable, two consecutive misses mark the node.
	Staleness time.Duration

	// MissRate is the probability a scrape attempt fails (exporter
	// timeout, dropped connection). Misses are drawn from each node's
	// private seeded RNG, so a given cluster seed replays the same miss
	// pattern at any parallelism.
	MissRate float64
}

// withDefaults resolves the zero values.
func (s ScrapeConfig) withDefaults() ScrapeConfig {
	if s.Interval <= 0 {
		s.Interval = 250 * time.Millisecond
	}
	if s.Skew == 0 {
		s.Skew = s.Interval / 10
	}
	if s.Skew < 0 {
		s.Skew = 0
	}
	if s.Staleness <= 0 {
		s.Staleness = 2*s.Interval + s.Skew
	}
	return s
}

// Options configures one cluster run.
type Options struct {
	// Seed is the root seed; node i derives its private simulation and
	// scrape-plane seeds from it.
	Seed int64

	// Nodes are the members. Empty is invalid.
	Nodes []NodeSpec

	// Level is the cluster load level: each node's offered rate is
	// Level * FailureRPS * Weight — the open-loop load plane split
	// proportionally to capacity.
	Level float64

	// Scrape configures the aggregation plane.
	Scrape ScrapeConfig

	// TopK sizes the rollup rankings (0 defaults to 3).
	TopK int

	// Attribution attaches the sketch-based attribution pipeline on
	// every node (RigOptions.Attribution) and folds the nodes' sketch
	// scrapes into per-epoch cluster-wide top-K offender rankings.
	// Off by default: the extra probe charges per-syscall cost to the
	// observed kernels, so enabling it perturbs (deterministically)
	// the other metrics.
	Attribution bool

	// WaitStates attaches the scheduler-state observer on every node
	// (RigOptions.WaitStates) and exports each server's on-CPU /
	// runnable / blocked shares per scrape, giving rollups a
	// queued-for-CPU ranking that separates saturated nodes from
	// delayed ones. Off by default for the same reason as Attribution:
	// the sched-hook probes charge (deterministic) cost to the observed
	// kernels.
	WaitStates bool

	// Warmup is simulated time driven before measurement and scraping
	// begin (0 defaults to 1s).
	Warmup time.Duration

	// Parallelism is the number of lockstep workers advancing node
	// simulations concurrently. Values below 1 resolve to 1
	// (sequential); the caller (sweep or command) passes its resolved
	// worker count. Results are identical at any setting.
	Parallelism int

	// Clock, when non-nil, is a shared cooperative execution budget
	// for every node environment (supervised fleet points).
	Clock *sim.Clock

	// Telemetry, when non-nil, receives every node registry merged in
	// ID order when the cluster closes.
	Telemetry *telemetry.Registry
}

// withDefaults resolves zero values.
func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.Level <= 0 {
		o.Level = 0.5
	}
	if o.TopK <= 0 {
		o.TopK = 3
	}
	if o.Warmup <= 0 {
		o.Warmup = time.Second
	}
	if o.Parallelism < 1 {
		o.Parallelism = 1
	}
	o.Scrape = o.Scrape.withDefaults()
	return o
}

// nodeSeedStride separates node seeds within a cluster; levelSeedStride
// (in sweep.go) separates clusters within a sweep. Both are primes far
// apart so no two (level, node) pairs of a sweep collide.
const nodeSeedStride = 7919

// Cluster is N nodes on one lockstep timeline plus the scrape plane.
type Cluster struct {
	Nodes []*Node

	opt    Options
	step   *sim.Lockstep
	epoch  int
	warmed bool

	// Per-epoch scrape targets and miss draws, one slot per node.
	targets []sim.Time
	miss    []bool
}

// NewCluster builds the members and registers them with the lockstep
// coordinator. Call Warmup before Run/ScrapeEpoch, and Close when done
// (it is safe on every path, including a supervision unwind).
func NewCluster(opt Options) *Cluster {
	opt = opt.withDefaults()
	if len(opt.Nodes) == 0 {
		panic("fleet: NewCluster needs at least one node")
	}
	c := &Cluster{
		opt:     opt,
		step:    sim.NewLockstep(opt.Parallelism),
		targets: make([]sim.Time, len(opt.Nodes)),
		miss:    make([]bool, len(opt.Nodes)),
	}
	for i, spec := range opt.Nodes {
		n := newNode(i, spec, opt.Seed+int64(i)*nodeSeedStride, opt.Level, opt.Clock, opt.Attribution, opt.WaitStates)
		c.Nodes = append(c.Nodes, n)
		c.step.Add(n.Rig.Env)
	}
	return c
}

// Warmup advances every node to the warmup horizon, rebases the
// observers, starts ground-truth measurement, and arms per-node fault
// plans (so fault windows land inside the measured run, per the PR 3
// convention).
func (c *Cluster) Warmup() {
	c.step.AdvanceAll(sim.Time(0).Add(c.opt.Warmup))
	for _, n := range c.Nodes {
		n.Rig.Obs.Sample() // discard: rebase the observation window
		if n.Rig.Wait != nil {
			n.Rig.Wait.Sample() // likewise for the wait-state window
		}
		n.Rig.Client.StartMeasurement()
		if !n.Spec.Plan.Empty() {
			n.Rig.Arm(n.Spec.Plan)
		}
	}
	c.warmed = true
}

// ScrapeEpoch runs one scrape round: every node advances to its own
// jittered scrape instant (lockstep, shardable), the scraper pulls the
// arrived nodes' exports, and the epoch's rollup is computed from the
// freshest samples in node-ID order.
func (c *Cluster) ScrapeEpoch() Rollup {
	if !c.warmed {
		c.Warmup()
	}
	cfg := c.opt.Scrape
	c.epoch++
	nominal := sim.Time(0).Add(c.opt.Warmup + time.Duration(c.epoch)*cfg.Interval)

	// Draw each node's scrape-plane randomness on the coordinator
	// goroutine, in node order, from the node's private RNG: two draws
	// per node per epoch, always both, so the sequence is fixed
	// regardless of outcomes or worker scheduling.
	for i, n := range c.Nodes {
		jitter := time.Duration(0)
		if cfg.Skew > 0 {
			jitter = time.Duration(n.rng.Int63n(int64(cfg.Skew) + 1))
		}
		c.miss[i] = n.rng.Float64() < cfg.MissRate
		c.targets[i] = nominal.Add(jitter)
	}
	c.step.Advance(c.targets)
	return c.collect(nominal)
}

// collect is the scraper's half of an epoch, behind the barrier: pull
// and decode every node's export unless its scrape was drawn as a miss,
// then fold the rollup. In steady state it allocates each scrape's Raw
// and the rollup's result slices, nothing else.
func (c *Cluster) collect(nominal sim.Time) Rollup {
	missed := 0
	for i, n := range c.Nodes {
		if c.miss[i] {
			n.missed++
			missed++
			continue // previous sample stays; ages toward staleness
		}
		raw := n.Export()
		if err := n.last.Metrics.Decode(raw); err != nil {
			// AppendProm output is Decode's own format; failing to read
			// it back is a programming error, not a data error.
			panic(fmt.Sprintf("fleet: node %d export unparsable: %v", n.ID, err))
		}
		n.last.Node, n.last.At, n.last.Raw = n.ID, c.targets[i], raw
		n.lastOK = true
		if n.Rig.Attr != nil {
			// Scrape the sketch plane alongside the text plane: a
			// consistent clone this epoch's rollup (and any later one,
			// if scrapes start missing) can merge without racing the
			// probe.
			n.lastAttr = n.Rig.Attr.Scrape()
			n.lastAttrOK = true
		}
	}
	return computeRollup(c.epoch, nominal, c.Nodes, c.opt.TopK, missed, c.opt.Scrape.Staleness)
}

// Run warms up (if not already) and executes epochs scrape rounds,
// returning the rollup series.
func (c *Cluster) Run(epochs int) []Rollup {
	rollups := make([]Rollup, 0, epochs)
	for i := 0; i < epochs; i++ {
		rollups = append(rollups, c.ScrapeEpoch())
	}
	return rollups
}

// GroundTruth snapshots every node's client-side view, in node order.
func (c *Cluster) GroundTruth() []Truth {
	ts := make([]Truth, len(c.Nodes))
	for i, n := range c.Nodes {
		ts[i] = n.Truth()
	}
	return ts
}

// MissedScrapes sums the scrapes lost across the run.
func (c *Cluster) MissedScrapes() int {
	total := 0
	for _, n := range c.Nodes {
		total += n.missed
	}
	return total
}

// Close merges node registries into Options.Telemetry (ID order) and
// shuts every node environment down. Safe to defer before Run: a
// supervision panic unwinding mid-epoch still drains all simulation
// goroutines.
func (c *Cluster) Close() {
	for _, n := range c.Nodes {
		c.opt.Telemetry.Merge(n.Rig.Reg)
	}
	c.step.Shutdown()
}
