package fleet

import (
	"runtime"

	"reqlens/internal/harness"
	"reqlens/internal/workloads"
)

// levelSeedStride separates the cluster seeds of a sweep's load levels
// (see nodeSeedStride in cluster.go for the intra-cluster stride).
const levelSeedStride = 1_000_003

// SweepOptions shapes the fleet saturation sweep on top of the shared
// harness.ExpOptions (which contributes Seed, Levels, Warmup,
// Parallelism and the whole supervision/telemetry/journal stack).
type SweepOptions struct {
	// Nodes are the workloads of the cluster members every level runs.
	// Empty defaults to DefaultSpecs(8).
	Nodes []workloads.Spec

	// Epochs is the number of scrape rounds per level (0 defaults to 8).
	Epochs int

	// Scrape configures the aggregation plane; NewCluster resolves its
	// zero values per ScrapeConfig.
	Scrape ScrapeConfig

	// workers bounds the lockstep workers inside each cluster: the
	// experiment's Parallelism, resolved as the engine resolves it (0
	// means GOMAXPROCS). Results are identical at any setting.
	workers int
}

// withDefaults resolves the zero values against the experiment options.
func (f SweepOptions) withDefaults(opt harness.ExpOptions) SweepOptions {
	if len(f.Nodes) == 0 {
		f.Nodes = DefaultSpecs(8)
	}
	if f.Epochs <= 0 {
		f.Epochs = 8
	}
	f.workers = opt.Parallelism
	if f.workers <= 0 {
		f.workers = runtime.GOMAXPROCS(0)
	}
	return f
}

// LevelPoint is one load level of a fleet sweep: the full rollup
// series the aggregation plane computed plus the per-node ground truth
// the clients measured.
type LevelPoint struct {
	Level   float64
	Rollups []Rollup
	Truth   []Truth

	// RealRPS sums the nodes' client-measured throughput; ObsvRPS is
	// the final epoch's scraped cluster throughput — the pair the
	// paper's Fig. 2 correlates, lifted to cluster scale.
	RealRPS float64
	ObsvRPS float64

	// QoSFails counts nodes whose client-side p99 violated their QoS.
	QoSFails int

	// MissedScrapes counts scrape attempts the plane lost across the
	// run; StaleEpochs counts epochs whose rollup excluded at least one
	// stale node.
	MissedScrapes int
	StaleEpochs   int

	// Gap marks a level that failed under supervision: only Level is
	// meaningful and renderers print the row as missing. Absent from
	// JSON on complete runs.
	Gap bool `json:",omitempty"`
}

// SweepResult is a fleet saturation sweep: one cluster run per load
// level, each a supervised engine point.
type SweepResult struct {
	Nodes  int
	Points []LevelPoint

	// Gaps lists the labels of levels lost to supervision. Absent from
	// JSON on complete runs.
	Gaps []string `json:",omitempty"`
}

// cluster is the cluster configuration of one sweep cell. Scrape passes
// through unresolved: NewCluster resolves it, once.
func (f SweepOptions) cluster(pc harness.PointCtx, cell harness.Cell) Options {
	return Options{
		Seed:        cell.Seed,
		Nodes:       f.Nodes,
		Level:       cell.Level,
		Scrape:      f.Scrape,
		Warmup:      cell.Warm,
		Parallelism: f.workers,
		Clock:       pc.Clock,
		Telemetry:   pc.Telemetry,
	}
}

// sweepLevel runs one cluster at one load level. The cluster seed is
// the cell's, derived from the root seed and the level index only, so
// the result is bit-identical at any engine or lockstep parallelism —
// and across supervision retries.
func sweepLevel(fopt SweepOptions, pc harness.PointCtx, cell harness.Cell) LevelPoint {
	c := NewCluster(fopt.cluster(pc, cell))
	// Deferred so a deadline kill unwinding out of any node's event loop
	// still drains every node's goroutines instead of leaking them.
	defer c.Close()
	p := LevelPoint{
		Level:   cell.Level,
		Rollups: c.Run(fopt.Epochs),
		Truth:   c.GroundTruth(),
	}
	for _, t := range p.Truth {
		p.RealRPS += t.RealRPS
		if t.QoSFail {
			p.QoSFails++
		}
	}
	if n := len(p.Rollups); n > 0 {
		p.ObsvRPS = p.Rollups[n-1].GlobalObsvRPS
	}
	p.MissedScrapes = c.MissedScrapes()
	for _, r := range p.Rollups {
		if len(r.Stale) > 0 {
			p.StaleEpochs++
		}
	}
	return p
}

// Sweep drives the whole fleet across load levels: at each level a
// fresh cluster of fopt.Nodes members splits level * sum(capacity)
// between them, runs fopt.Epochs scrape rounds, and reports the rollup
// series against summed ground truth. Levels are cells of one harness
// grid, so every cluster is a supervised point with PR 5
// deadline/retry/gap semantics and checkpoint resume.
func Sweep(opt harness.ExpOptions, fopt SweepOptions) SweepResult {
	fopt = fopt.withDefaults(opt)
	points, st := harness.RunCells(opt, "fleet",
		opt.LevelCells(harness.Cell{Label: "fleet"}, levelSeedStride),
		func(pc harness.PointCtx, c harness.Cell) LevelPoint { return sweepLevel(fopt, pc, c) },
		func(c harness.Cell) LevelPoint { return LevelPoint{Level: c.Level, Gap: true} })
	return SweepResult{Nodes: len(fopt.Nodes), Points: points, Gaps: st.GapLabels()}
}
