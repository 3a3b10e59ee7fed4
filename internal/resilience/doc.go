// Package resilience supervises experiment points so a multi-hour sweep
// degrades instead of dying.
//
// The harness engine (internal/harness.RunCells) fans independent,
// deterministic points across a worker pool. Without supervision the
// pool inherits Go's default failure semantics: one panicking probe
// point kills the whole process, and a rig whose event heap never
// drains stalls its worker forever. This package wraps each point in a
// Supervisor that
//
//   - recovers panics into a typed *PointError carrying the panic
//     value, the goroutine stack, and the point's label/seed/index —
//     the process survives and sibling points are untouched;
//   - enforces a per-attempt wall-clock deadline through a sim.Clock
//     handed to the point function: the rig wires it into its
//     environment, the event loop checks it cooperatively, and an
//     exhausted budget unwinds as a sim.Timeout that the supervisor
//     classifies as a deadline kill;
//   - retries failed attempts with capped exponential backoff. The
//     point function is pure in its derived seed, so a retried attempt
//     replays the identical simulation — a success on attempt 3 is
//     bit-identical to a success on attempt 0, which is what keeps
//     resumed and retried sweeps byte-comparable to clean runs;
//   - optionally injects chaos (first-attempt panics and hangs, chosen
//     deterministically by point index) so the whole
//     supervise-retry-recover stack can be proven end to end against
//     real rigs.
//
// Every supervisor decision is counted in an optional
// telemetry.Registry (resilience_* instruments), so `-metrics` output
// shows how hard a run had to fight to complete.
//
// Entry points: New, Run, Chaos, DefaultChaos.
package resilience
