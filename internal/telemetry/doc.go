// Package telemetry is reqlens's self-observation layer: a
// zero-dependency metrics registry and span journal for watching the
// simulator stack itself (event loop, scheduler, eBPF VM, ring buffers,
// experiment engine) the way the paper's probes watch a server.
//
// The package mirrors the paper's constraint on its own tooling: the
// observed system must not notice the observer. Concretely:
//
//   - Disabled is free. Every instrument and the registry itself are
//     nil-safe; instrumented hot paths hold nil pointers when telemetry
//     is off, so the only residual cost is a nil check. Nothing here is
//     consulted by simulation logic, so enabling telemetry cannot change
//     experiment results either (the golden-window and parallel
//     determinism tests in internal/harness pin both properties).
//
//   - Hot-path updates are lock-free. Counters and gauges are single
//     atomics; histograms are log-linear atomic bucket arrays
//     (12.5% worst-case quantile error). Registration takes a mutex but
//     happens once, at wiring time.
//
//   - Merges are commutative. Per-rig registries fold into a run-level
//     registry by addition, so totals are independent of the parallel
//     engine's completion order.
//
// Entry points: New (registry), Registry.AppendProm / WriteProm
// (Prometheus text export) and Series.Decode / ParseProm (reading it
// back), OpenJournal/Begin/End (JSONL run journal), ReadJournal and
// RenderJournal (the `reqlens telemetry` subcommand).
package telemetry
