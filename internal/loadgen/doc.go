// Package loadgen drives workloads with an open-loop client — the load
// model that pushes a server past saturation regardless of its response
// rate, as the paper's sweeps require. It measures the ground-truth
// request rate (RPS_real, the "benchmark-reported RPS" of Fig. 2) and
// client-perceived latency percentiles, including every network effect
// (delay, loss, retransmission) — the truth column every figure pairs
// against the in-kernel estimate.
//
// Key entry points:
//
//   - New(k, listener, opts) — start a client on a kernel machine
//     against a server's netsim listener. Options selects the offered
//     Rate, connection count, request size, per-op client CPU cost
//     (nonzero when co-located with the server, as the paper's
//     containers are), and paced vs Poisson interarrivals.
//   - Client.StartMeasurement — reset measurement state at a window
//     boundary; Client.Snapshot — RealRPS and the p99 latency
//     (Results.P99 feeds the QoS verdicts of Figs. 3-5).
//
// The receiver (one per connection) and generator (a fixed four,
// splitting Rate) threads are kernel loop threads (Process.SpawnLoop):
// state machines issuing what a loop of blocking calls would, in its
// order, with no goroutine each.
//
// The harness co-locates the client with the server by default
// (matching the paper's same-host container placement) and paces each
// generator uniformly; separate-machine and Poisson variants are
// ablations (ExpOptions.SeparateClient, ExpOptions.Poisson). Both knobs
// stay because the root BenchmarkAblationPoissonClient sets them, and
// that run backs DESIGN.md's ablation paragraph and EXPERIMENTS.md's
// ablation row.
package loadgen
