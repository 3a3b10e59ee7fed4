// Package control closes the loop on the paper's feedback-free
// saturation signals: it turns per-window probe read-outs into typed
// alarms, alarms into cause attributions, and attributions into
// capacity actions — all deterministic and driven entirely inside the
// simulation clock.
//
// Three pieces compose:
//
//   - SaturationDetector wraps the streaming changepoint primitives in
//     internal/stats (a one-sided CUSUM on the Eq. 2 send-delta
//     variance, a two-sided EWMA chart on the Fig. 4 poll-slack
//     signal). It self-calibrates on a short healthy warmup, then
//     standardizes each window against that baseline — no offline
//     training, no client feedback, exactly the deployment the paper
//     argues for.
//
//   - Attributor classifies a confirmed alarm into a cause class by
//     fusing the three deployed signal families: the variance knee
//     (what tripped), the wait-state shares from the sched probes
//     (netem inflates blocked time; CPU contention inflates runnable,
//     per DESIGN.md §10), and the sketch-level TopOffenders from the
//     attribution probes (a noisy neighbor is visible as foreign-tgid
//     syscall share, per §9). harness.AttributionMatrix scores its
//     precision and recall against ground-truth fault windows.
//
//   - Autoscaler maps detector state plus the poll-slack estimate onto
//     whole-CPU capacity steps with hysteresis bands, a cooldown, and
//     modeled actuation latency; kernel.SetOnlineCPUs is the actuator.
//     harness.AutoscaleScenario measures QoS recovery time as a
//     function of that latency.
//
// The chart parameters, the attributor's thresholds and the
// autoscaler's steps and slack band are package constants, calibrated
// once and frozen: only the warmup, the capacity bounds, the cooldown,
// the actuation latency and telemetry are configured per caller.
//
// Everything on the per-window path is allocation-free: the detector,
// attributor, and autoscaler each hold O(1) state and perform O(1)
// work per Observe, pinned by testing.AllocsPerRun.
package control
