// Fault injection: perturbing the kernel under the probes.
//
// The paper's Table II shows the syscall-derived request metrics
// surviving network-level perturbation; `reqlens robustness` asks the
// same question of kernel-side faults across the standard plans. This
// example shows the library underneath: it hand-builds a mixed plan —
// CPUs going offline mid-run, clock jitter on the tracepoint timestamps,
// and the probes themselves detaching and reattaching — arms it on a
// live rig, and watches the kernel state change and recover at the
// scheduled instants. The observer keeps producing windows afterwards.
//
// Fault schedules are seed-driven: the same plan on the same rig seed
// perturbs the same instants, so every number below is reproducible.
//
//	go run ./examples/fault-injection
package main

import (
	"fmt"
	"time"

	"reqlens/internal/faults"
	"reqlens/internal/harness"
	"reqlens/internal/workloads"
)

func main() {
	spec := workloads.Silo()
	rig := harness.NewRig(spec, harness.RigOptions{
		Seed:   7,
		Rate:   0.5 * spec.FailureRPS,
		Probes: true,
	})
	defer rig.Close()
	rig.Warmup(200 * time.Millisecond)

	plan := faults.Plan{Name: "demo-mix", Seed: 3, Faults: []faults.Fault{
		{Kind: faults.CPUOffline, CPUs: 2, Duration: 60 * time.Millisecond},
		{Kind: faults.ClockJitter, Amplitude: 5 * time.Microsecond},
		{Kind: faults.ProbeChurn, Start: 20 * time.Millisecond, Duration: 30 * time.Millisecond},
	}}
	fmt.Printf("arming plan %q on %s\n", plan.Name, spec)
	ctl := rig.Arm(plan)

	var at time.Duration
	for _, next := range []time.Duration{
		5 * time.Millisecond,   // offline window active
		30 * time.Millisecond,  // churn window: probes detached
		100 * time.Millisecond, // everything restored
	} {
		rig.Advance(next - at)
		at = next
		fmt.Printf("  t=%-6v online CPUs: %2d  probe links: %d\n",
			at, rig.ServerK.OnlineCPUs(), rig.ServerK.Tracer().Attached())
	}
	fmt.Printf("injections applied: %v\n", ctl.Applied())
	if err := ctl.Err(); err != nil {
		fmt.Println("controller error:", err)
	}
	ctl.Clear()

	// The observer keeps producing after the churn window: the same
	// counters, rebased, not a crashed pipeline.
	rig.Obs.Sample()
	rig.Advance(300 * time.Millisecond)
	w := rig.Obs.Sample()
	fmt.Printf("post-fault window: %d sends observed in %v\n", w.Send.Calls, w.Duration)
}
