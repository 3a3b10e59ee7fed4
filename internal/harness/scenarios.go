package harness

import (
	"time"

	"reqlens/internal/control"
	"reqlens/internal/faults"
	"reqlens/internal/loadgen"
	"reqlens/internal/netsim"
)

// This file is the one catalog of the fault classes the closed-loop
// studies diagnose. A scenario is a ground-truth cause plus a map from
// an intensity x to a whole-run fault plan; the wait-state diagnosis,
// the attribution matrix and the autoscale sweep name only (scenario,
// x) picks, so each class's severity is written here once.
// faults.StandardPlans stays the robustness library: its loss-only link
// and 20%-duty tenant sit off these axes.

// scenario is one fault class on an intensity axis.
type scenario struct {
	cause control.Cause
	// plan maps x to a whole-run plan. Nil for overload, whose x is
	// extra offered load (a fraction of failure RPS), not a fault.
	plan func(x float64) faults.Plan
}

var (
	baseline = scenario{control.CauseNone, func(float64) faults.Plan { return faults.Plan{} }}
	overload = scenario{cause: control.CauseOverload}
	// netem is x loss on a 10 ms one-way link, no jitter (tc netem delay
	// 10ms loss x). A constant delay only phase-shifts a paced arrival
	// process and is invisible to server-side probes in steady state, so
	// loss carries the signal: each lost packet holds its connection for
	// a retransmission, bunching the arrivals behind it.
	netem = scenario{control.CauseNetem, func(x float64) faults.Plan {
		return faults.Plan{Name: "netem", Netem: netsim.Config{Delay: 10 * time.Millisecond, Loss: x}}
	}}
	// noisy is a tenant of x threads at ~80% duty (400us burns every
	// 100us of sleep): from eight threads on it occupies most of the
	// machine, so server wakeups land behind tenant burns and queue.
	noisy = scenario{control.CauseNoisyNeighbor, func(x float64) faults.Plan {
		return faults.Plan{Name: "noisy", Seed: 14, Faults: []faults.Fault{{
			Kind: faults.NoisyNeighbor, Threads: int(x),
			Period: 100 * time.Microsecond, Burn: 400 * time.Microsecond,
		}}}
	}}
	// cpuOffline removes x of the server's CPUs.
	cpuOffline = scenario{control.CauseCPUOffline, func(x float64) faults.Plan { return faults.CPUOfflinePlan(int(x)) }}
)

// pick is one (scenario, intensity) point of a study, under the name
// the study renders.
type pick struct {
	name string
	scenario
	x float64
}

// on places p on the cell from its start: overload raises the offered
// level by x, any other class arms its plan once the cell is warm.
func (p pick) on(c Cell) Cell {
	if p.plan == nil {
		c.Level += p.x
	} else {
		c.Plan = p.plan(p.x)
	}
	return c
}

// inject applies p at the current simulated instant, the recorded
// onset of a closed-loop trial. Overload starts a second load generator
// offering x of failure RPS and returns it; a plan's link shaping
// becomes a faults.NetemShift of the running link; anything else is
// armed.
func (r *Rig) inject(p pick) *loadgen.Client {
	if p.plan == nil {
		spec := r.Server.Spec()
		return loadgen.New(r.ClientK, r.Server.Listener(), loadgen.Options{
			Rate:      p.x * spec.FailureRPS,
			Conns:     2 * spec.Workers,
			ReqSize:   spec.ReqSize,
			PerOpCost: spec.ClientPerOpCost(),
		})
	}
	plan := p.plan(p.x)
	if plan.HasNetem() {
		plan.Faults = append(plan.Faults, faults.Fault{Kind: faults.NetemShift, Netem: plan.Netem})
		plan.Netem = netsim.Config{}
	}
	if !plan.Empty() {
		r.Arm(plan)
	}
	return nil
}
