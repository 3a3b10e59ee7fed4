// Saturation monitor: detect a QoS failure from kernel space alone.
//
// Load ramps up in steps. control.SaturationDetector charts the variance
// of inter-send deltas (the paper's Eq. 2 / Fig. 3 signal) and the mean
// epoll duration (Fig. 4) against a baseline it learns from the first
// windows, and a SlackEstimator tracks the remaining headroom. The
// printout pairs every in-kernel verdict with the ground truth the
// detector cannot see: the client's p99 against the QoS limit.
//
//	go run ./examples/saturation-monitor
package main

import (
	"fmt"
	"time"

	"reqlens/internal/control"
	"reqlens/internal/core"
	"reqlens/internal/harness"
	"reqlens/internal/loadgen"
	"reqlens/internal/workloads"
)

func main() {
	spec := workloads.ImgDNN()
	rig := harness.NewRig(spec, harness.RigOptions{
		Seed:   7,
		Rate:   0.45 * spec.FailureRPS, // base load; steps add more
		Probes: true,
	})
	defer rig.Close()

	// The baseline is the five base-load windows before the first step.
	// The poll chart is two-sided, so a wide limit keeps it from
	// alarming on the shift of a healthy step (epoll waits up to ~2.5x
	// shorter) and leaves it the collapse of the slack.
	detector := control.NewSaturationDetector(control.DetectorConfig{Warmup: 5, PollLimit: 40})
	slack := core.NewSlackEstimator()

	fmt.Printf("workload %s: QoS limit p99 <= %v, paper failure at %.0f RPS\n\n",
		spec, spec.QoS, spec.FailureRPS)
	fmt.Printf("%-6s %10s %10s %8s %12s %10s %8s\n",
		"t", "RPS_obsv", "var(us2)", "slack", "p99(truth)", "verdict", "truth")

	rig.Warmup(2 * time.Second)

	step := 0
	var now time.Duration
	for tick := 0; tick < 36; tick++ {
		// Every 6 ticks, another traffic source joins (+20% of failure).
		if tick%6 == 5 && step < 3 {
			step++
			loadgen.New(rig.ClientK, rig.Server.Listener(), loadgen.Options{
				Rate:      0.2 * spec.FailureRPS,
				Conns:     16,
				ReqSize:   spec.ReqSize,
				PerOpCost: spec.ClientPerOpCost(),
			})
		}
		m := rig.Measure(time.Second)
		now += time.Second
		alarm, saturated := detector.Observe(now, control.Sample{
			SendVarUS2: m.SendVarUS2, RPS: m.RPSObsv, PollMeanNS: m.PollMeanNS,
		})
		sl := slack.Observe(time.Duration(m.PollMeanNS))

		verdict := "ok"
		if saturated {
			verdict = "ALARM " + alarm.Signal.String()
		} else if !detector.Warmed() {
			verdict = "(warmup)"
		} else if sl < 0.1 {
			verdict = "low slack"
		}
		truth := "ok"
		if m.Load.P99 > spec.QoS {
			truth = "QoS FAIL"
		}
		fmt.Printf("%-6d %10.0f %10.0f %7.0f%% %12v %10s %8s\n",
			tick, m.RPSObsv, m.SendVarUS2, 100*sl,
			m.Load.P99.Round(time.Millisecond), verdict, truth)
	}

	fmt.Println("\nThe poll chart alarms in the step the client-side p99 crosses the")
	fmt.Println("QoS limit, as the epoll slack collapses — without any client feedback.")
}
