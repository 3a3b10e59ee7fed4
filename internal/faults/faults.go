package faults

import (
	"fmt"
	"time"

	"reqlens/internal/netsim"
)

// Kind selects one injector mechanism.
type Kind int

const (
	// CPUOffline removes CPUs from dispatch for the fault window
	// (hotplug): busy CPUs finish their occupant, then idle.
	CPUOffline Kind = iota
	// MigrationStorm periodically flushes every CPU's affinity so the
	// next dispatch on each CPU pays the full context-switch cost.
	MigrationStorm
	// ClockJitter warps the tracepoint clock seen by eBPF programs by a
	// random non-negative, monotonicity-preserving skew per read.
	ClockJitter
	// NoisyNeighbor runs a background tenant process whose threads flood
	// the kernel with send-family syscalls and burn CPU, stressing both
	// the scheduler and the probes' tgid-filter fast path.
	NoisyNeighbor
	// RingStall pauses the streaming observer's ring-buffer consumer for
	// the fault window, building producer-side pressure (drops once the
	// ring fills).
	RingStall
	// ProbeChurn detaches the batch probes at the window start and
	// reattaches them at the end, as an agent restart would.
	ProbeChurn
	// NetemShift reshapes every network link to the fault's Netem config
	// for the window (a mid-run `tc qdisc change`), restoring the links'
	// original shaping at the end. Unlike Plan.Netem — which is a
	// whole-run link property — NetemShift gives network degradation a
	// ground-truth onset time, which the attribution experiments need.
	NetemShift
)

func (k Kind) String() string {
	switch k {
	case CPUOffline:
		return "cpu-offline"
	case MigrationStorm:
		return "migration-storm"
	case ClockJitter:
		return "clock-jitter"
	case NoisyNeighbor:
		return "noisy-neighbor"
	case RingStall:
		return "ring-stall"
	case ProbeChurn:
		return "probe-churn"
	case NetemShift:
		return "netem-shift"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Fault is one scheduled injection. Zero parameter values take
// per-kind defaults (see withDefaults).
type Fault struct {
	Kind  Kind
	Start time.Duration // offset from Arm
	// Duration of the injection window; 0 means "until Clear".
	Duration time.Duration

	CPUs      int           // CPUOffline: how many CPUs to remove
	Threads   int           // NoisyNeighbor: tenant thread count
	Period    time.Duration // MigrationStorm flush interval / NoisyNeighbor pacing
	Burn      time.Duration // NoisyNeighbor per-iteration CPU burn
	Amplitude time.Duration // ClockJitter maximum skew per read
	Netem     netsim.Config // NetemShift: link config for the window
}

// withDefaults fills zero parameters with the calibrated defaults used
// by the standard plans.
func (f Fault) withDefaults() Fault {
	if f.CPUs <= 0 {
		f.CPUs = 2
	}
	if f.Threads <= 0 {
		f.Threads = 4
	}
	if f.Period <= 0 {
		switch f.Kind {
		case MigrationStorm:
			f.Period = 500 * time.Microsecond
		default:
			f.Period = 120 * time.Microsecond
		}
	}
	if f.Burn <= 0 {
		f.Burn = 30 * time.Microsecond
	}
	if f.Amplitude <= 0 {
		f.Amplitude = 5 * time.Microsecond
	}
	return f
}

// Plan is a named, composable schedule of injectors plus an optional
// netem link configuration (the paper's network-side perturbation).
// The zero Plan is the fault-free baseline.
type Plan struct {
	Name string
	// Seed drives every injector's private randomness. Two runs of the
	// same plan on the same rig seed replay identical perturbations.
	Seed int64
	// Netem, when non-zero, replaces the experiment's link shaping for
	// the whole run (netem is a link property, not a windowed event).
	Netem netsim.Config
	// Faults are applied via Arm in schedule order.
	Faults []Fault
}

// Empty reports whether the plan perturbs nothing.
func (p Plan) Empty() bool { return len(p.Faults) == 0 && !p.HasNetem() }

// HasNetem reports whether the plan carries a link configuration.
func (p Plan) HasNetem() bool { return p.Netem != (netsim.Config{}) }

// Validate rejects malformed schedules before any event is armed.
func (p Plan) Validate() error {
	for i, f := range p.Faults {
		if f.Kind < CPUOffline || f.Kind > NetemShift {
			return fmt.Errorf("faults: plan %q fault %d: unknown kind %d", p.Name, i, int(f.Kind))
		}
		if f.Start < 0 || f.Duration < 0 {
			return fmt.Errorf("faults: plan %q fault %d (%v): negative schedule", p.Name, i, f.Kind)
		}
		if f.Kind == NetemShift && f.Netem == (netsim.Config{}) {
			return fmt.Errorf("faults: plan %q fault %d: netem-shift with zero link config", p.Name, i)
		}
	}
	return nil
}

// DelayPlan shapes the link with added one-way delay (Table II style).
func DelayPlan(d time.Duration) Plan {
	return Plan{Name: fmt.Sprintf("delay-%v", d), Netem: netsim.Config{Delay: d}}
}

// LossPlan shapes the link with random packet loss (Table II style).
func LossPlan(loss float64) Plan {
	return Plan{Name: fmt.Sprintf("loss-%g%%", loss*100), Netem: netsim.Config{Loss: loss}}
}

// CPUOfflinePlan removes n CPUs for the whole armed window.
func CPUOfflinePlan(n int) Plan {
	return Plan{Name: fmt.Sprintf("cpu-off-%d", n), Seed: 11,
		Faults: []Fault{{Kind: CPUOffline, CPUs: n}}}
}

// MigrationStormPlan flushes CPU affinity every period for the whole
// armed window.
func MigrationStormPlan(period time.Duration) Plan {
	return Plan{Name: fmt.Sprintf("migrate-%v", period), Seed: 12,
		Faults: []Fault{{Kind: MigrationStorm, Period: period}}}
}

// ClockJitterPlan warps the tracepoint clock by up to amp per read.
func ClockJitterPlan(amp time.Duration) Plan {
	return Plan{Name: fmt.Sprintf("jitter-%v", amp), Seed: 13,
		Faults: []Fault{{Kind: ClockJitter, Amplitude: amp}}}
}

// NoisyNeighborPlan floods the kernel with a background tenant.
func NoisyNeighborPlan(threads int) Plan {
	return Plan{Name: fmt.Sprintf("neighbor-%d", threads), Seed: 14,
		Faults: []Fault{{Kind: NoisyNeighbor, Threads: threads}}}
}

// ProbeChurnPlan detaches the probes at start and reattaches after dur.
func ProbeChurnPlan(start, dur time.Duration) Plan {
	return Plan{Name: "probe-churn", Seed: 16,
		Faults: []Fault{{Kind: ProbeChurn, Start: start, Duration: dur}}}
}

// StandardPlans is the library the robustness matrix and CLI use: the
// paper's two netem settings plus one plan per kernel-side injector at
// calibrated severities.
func StandardPlans() []Plan {
	return []Plan{
		DelayPlan(10 * time.Millisecond),
		LossPlan(0.01),
		CPUOfflinePlan(2),
		MigrationStormPlan(500 * time.Microsecond),
		ClockJitterPlan(5 * time.Microsecond),
		NoisyNeighborPlan(4),
		ProbeChurnPlan(5*time.Millisecond, 15*time.Millisecond),
	}
}
