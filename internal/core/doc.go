// Package core is the reproduction's primary contribution: a library
// for in-kernel observability of request-level metrics of
// latency-sensitive applications, built purely from eBPF syscall
// tracing — no userspace cooperation from the observed application.
//
// An Observer attaches the paper's probe set to a process and exposes
// windowed request-level metrics:
//
//   - Window.RPSObsv — throughput estimated from send-family
//     inter-syscall deltas (Eq. 1: RPS = 1/mean(dt_send)), the Fig. 2 /
//     Table II estimator;
//   - send/recv delta variance (Eq. 2) — the saturation signal of
//     Fig. 3;
//   - mean poll (epoll_wait/select) duration — the idleness/saturation
//     slack signal of Fig. 4.
//
// SlackEstimator, and internal/control's SaturationDetector, turn those
// raw signals into decisions a management runtime (DVFS governor, core
// allocator, autoscaler) can act on, as motivated in Sections I and VI;
// see examples/blackbox-autoscaler.
//
// Key entry points:
//
//   - Attach / MustAttach — wire the probe set to a kernel.Kernel for
//     one tgid (Config selects the send/recv/poll syscall families)
//     with the map sink: Observer.Sample reads the aggregate maps,
//     closes the current observation window and opens the next.
//   - AttachStream / MustAttachStream — the same Observer with the ring
//     sink: the probes also emit one event per observation into a
//     bounded ring, folded into map-identical integer aggregates, with
//     a producer-side Dropped counter. A lossless stream reconstructs
//     the map sink's windows bit-for-bit.
//   - SlackEstimator — normalized idle headroom from poll durations.
//   - AttachWaitProfile — the wait-state probe pair for one tgid,
//     windowed into on-CPU / runnable / blocked time.
//
// Sketch attribution has no wrapper here: harness.Rig attaches
// probes.AttributionProbe directly and reads its Sketches.
//
// The experiment harness (internal/harness) evaluates this library
// against client-side ground truth; this package itself never reads
// anything an in-kernel deployment wouldn't have.
package core
