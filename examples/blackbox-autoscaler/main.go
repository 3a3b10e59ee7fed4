// Black-box autoscaler: the Section VI use case, closed-loop.
//
// A resource-management runtime usually needs the application to report
// its own throughput and latency. Here the controller sees only the
// in-kernel signals from the reqlens observer — the online saturation
// detector's chart alarms plus epoll-slack — and internal/control's
// autoscaler (hysteresis, cooldown, modeled actuation latency) decides
// how many cores the service deserves. The loop is closed: decisions
// actually resize the server's online CPU set mid-run, and the log
// replays them against ground-truth p99 to show the controller acted at
// the right moments.
//
// The controller also answers "scale up *what*": the sketch-based
// attribution pipeline (count-min + HashPipe in fixed map space) names
// the process driving the load. A ground-truth tracer listener, which
// costs the traced threads nothing, counts syscalls per tgid exactly
// alongside; the run exits non-zero if the sketch blames a different
// hot process, so the examples-smoke gate enforces the agreement.
//
//	go run ./examples/blackbox-autoscaler
package main

import (
	"fmt"
	"os"
	"time"

	"reqlens/internal/control"
	"reqlens/internal/core"
	"reqlens/internal/harness"
	"reqlens/internal/kernel"
	"reqlens/internal/loadgen"
	"reqlens/internal/workloads"
)

// decision is one tick's controller state, derived purely from
// kernel-space observations.
type decision struct {
	tick    int
	action  string
	alarmed bool
	slack   float64
	rps     float64
	cores   int
	trueP99 time.Duration
}

func main() {
	spec := workloads.Silo()
	rig := harness.NewRig(spec, harness.RigOptions{
		Seed:        23,
		Rate:        0.3 * spec.FailureRPS,
		Probes:      true,
		Attribution: true,
	})
	defer rig.Close()
	// Exact per-tgid truth for the agreement check.
	exact := map[uint64]uint64{}
	rig.ServerK.Tracer().AddListener(func(ev kernel.SyscallEvent) {
		if ev.Enter {
			exact[ev.Thread.PidTgid()>>32]++
		}
	})

	// The service starts on half the machine; the autoscaler may grow it
	// back. Actuation takes a modeled second — cores requested now
	// arrive one second of simulated time later.
	const startCores = 4
	rig.ServerK.SetOnlineCPUs(startCores)
	rig.Warmup(2 * time.Second)

	detector := control.NewSaturationDetector(control.DetectorConfig{Warmup: 4})
	var slack core.SlackEstimator
	scaler := control.NewAutoscaler(startCores, control.AutoscalerConfig{
		Min: 3, Max: workloads.ServerCores,
		Cooldown: 3 * time.Second,
		Latency:  time.Second,
	})

	var log []decision
	var now time.Duration
	for tick := 0; tick < 20; tick++ {
		if tick == 6 { // demand surges to 0.75x the failure rate
			loadgen.New(rig.ClientK, rig.Server.Listener(), loadgen.Options{
				Rate:      0.45 * spec.FailureRPS,
				Conns:     16,
				ReqSize:   spec.ReqSize,
				PerOpCost: spec.ClientPerOpCost(),
			})
		}
		m := rig.Measure(time.Second)
		now += time.Second
		_, alarmed := detector.Observe(now, m.Evidence())
		sl := slack.Observe(m.Obs.Poll.MeanDuration)

		action := "hold"
		if d, ok := scaler.Observe(now, alarmed, sl); ok {
			action = fmt.Sprintf("%v -> %d cores (%s)", d.Action, d.To, d.Reason)
			if lead := d.EffectiveAt - now; lead > 0 {
				target := d.To
				rig.Env.Post(lead, func() { rig.ServerK.SetOnlineCPUs(target) })
			} else {
				rig.ServerK.SetOnlineCPUs(d.To)
			}
		}
		log = append(log, decision{
			tick: tick, action: action, alarmed: alarmed, slack: sl,
			rps: m.Obs.RPSObsv(), cores: scaler.Target(), trueP99: m.Load.P99,
		})
	}
	// Attribution read-out: the sketch path names the hot process; the
	// exact counts (a real deployment would not have them) verify it.
	offenders := rig.Attr.Sketches().TopOffenders(3)

	fmt.Printf("controller input: RPS_obsv + slack + chart alarms (no app metrics)\n\n")
	fmt.Printf("%-5s %10s %6s %8s %6s %14s   %s\n",
		"tick", "RPS_obsv", "alarm", "slack", "cores", "p99 (truth)", "action")
	for _, d := range log {
		al := "-"
		if d.alarmed {
			al = "ALARM"
		}
		p99 := "-" // no base-client response completed this tick
		if d.trueP99 > 0 {
			p99 = d.trueP99.Round(time.Millisecond).String()
		}
		fmt.Printf("%-5d %10.0f %6s %7.0f%% %6d %14s   %s\n",
			d.tick, d.rps, al, 100*d.slack, d.cores, p99, d.action)
	}
	fmt.Println("\nScale-up actions cluster where the ground-truth p99 degrades: the")
	fmt.Println("runtime managed the service without a single userspace metric.")

	fmt.Printf("\nattribution (sketch, %d B of map space):\n", rig.Attr.Bytes())
	for _, o := range offenders {
		fmt.Printf("  tgid %d: ~%d syscalls, ~%d sends, ~%v busy\n",
			o.TGID, o.Syscalls, o.Sends, o.Busy)
	}
	var hotExact uint64
	for tgid, n := range exact {
		if n > exact[hotExact] || (n == exact[hotExact] && tgid < hotExact) {
			hotExact = tgid
		}
	}
	if len(offenders) == 0 || offenders[0].TGID != hotExact {
		fmt.Fprintf(os.Stderr, "attribution mismatch: sketch blames %v, oracle says tgid %d\n",
			offenders, hotExact)
		os.Exit(1)
	}
	fmt.Printf("sketch and exact oracle agree: tgid %d is the hot process\n", hotExact)
}
