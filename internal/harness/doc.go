// Package harness assembles full experiments and regenerates every
// figure and table of the paper's evaluation: a simulated server
// machine running one workload, a client machine generating open-loop
// load over a netem-shaped link, and the paper's eBPF probes attached
// to the server's tracepoints.
//
// # Rigs
//
// A Rig is one fully wired experiment instance — sim.Env, kernels,
// network, workload server, load client, and (optionally) the
// core.Observer under evaluation. NewRig builds one from a
// workloads.Spec and RigOptions; Warmup advances it to steady state;
// Measure returns one window of paired ground truth and eBPF
// observations; Close reclaims its goroutines. Rigs share no mutable
// state, so independent rigs may run concurrently.
//
// RigOptions.Stream additionally attaches a core.Observer with the ring
// sink beside the map-sink one. Rig.Advance then drains the ring on a
// fixed 50 ms simulated-time cadence, so drop counts under an undersized
// ring are deterministic for a given seed, and Measurement pairs every
// map-sink window with its stream-reconstructed twin.
//
// # Experiments: cells, one point protocol, one engine
//
// Every artifact is the same protocol — offer a fraction of the failure
// RPS, warm up, arm any fault plan, measure, compare probe and client —
// so every driver (Fig1 … AutoscaleScenario, taking one ExpOptions) has
// the same three steps. It declares its grid as []Cell: each cell
// carries label, workload, level, seed, link, plan and warm-up as data,
// so what differs between experiments (Fig. 2 never over-warms;
// Fig5/Table2/Robustness seed by level within a block, the wait-state
// and control grids by flat index) is visible in the cells, not buried
// in code paths. RunCells runs the grid: defaults, the experiment span
// that also namespaces checkpoints, one journal span and private
// telemetry registry per point, and gap(cell) in the slot of any point
// lost to supervision. The body turns a cell into a rig through
// PointCtx.rig — the only caller of NewRig — measures, and returns a
// JSON-serializable value; the driver assembles the slice. Render*
// print each result as the ASCII analogue of the paper's figure.
//
// RunCells sits on runPoints, a bounded worker pool
// (ExpOptions.Parallelism; GOMAXPROCS by default). Points share nothing
// and results are reassembled in point order, so output is bit-identical
// to a sequential run at any parallelism (TestParallelSweepDeterminism).
// Only wall-clock accounting (RunStats, PointDone.Wall) reflects real
// time and scheduling, and it never feeds back into results; telemetry
// is write-only and merges by commutative addition. Under supervision
// a point may be killed, retried with the same inputs, or replayed from
// a checkpoint without changing a byte.
//
// Quick returns the reduced scale used by tests; the zero ExpOptions is
// paper scale.
package harness
