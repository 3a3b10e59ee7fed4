// Package fleet lifts the repo's one-rig/one-kernel core to cluster
// scale: a simulated fleet of nodes — each a private kernel + workload
// + observer + telemetry registry + load generator (a harness.Rig) on
// its own deterministic timeline — advanced in lockstep
// (sim.Lockstep), with the paper's open-loop load split across the
// nodes and a scrape/merge aggregation plane on top.
//
// The aggregation plane models a production metrics pipeline the way
// the simulation models a kernel: the scraper pulls each node's
// Prometheus text export (telemetry.AppendProm into a buffer the node
// reuses and lends to its Sample) on a configurable interval, with
// per-node scrape-time jitter (clock skew between scrape targets) and
// deterministic scrape misses; Series.Decode reconstructs the samples
// losslessly, and per-epoch Rollups compute
// the cluster view — global observed RPS, per-node saturation, top-K
// saturated and noisy nodes. Nodes whose last successful scrape is
// older than the staleness bound are marked explicitly stale and
// excluded from rollup sums — the PR 5 gap convention: a hole is
// reported as a hole, never zero-filled.
//
// Determinism survives both layers of sharding. Within a cluster, each
// node's environment is advanced by exactly one lockstep worker per
// round and shares no state with any other node, so the lockstep
// worker count cannot affect any sample. Across a sweep, each fleet
// point (one cluster per load level) is a cell of a supervised
// harness.RunCells grid, with PR 5 deadlines, retries and gap accounting.
// TestFleetParallelDeterminism pins byte-identical sweep results at
// parallelism 1, 4 and GOMAXPROCS.
package fleet
