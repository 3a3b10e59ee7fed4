package faults

import (
	"fmt"
	"math/rand"
	"time"

	"reqlens/internal/kernel"
	"reqlens/internal/netsim"
	"reqlens/internal/sim"
)

// ProbeSet is the slice of the observer API ProbeChurn needs; the core
// package's Observer satisfies it.
type ProbeSet interface {
	Detach()
	Reattach() error
}

// Target names what a plan perturbs.
type Target struct {
	// Kernel is the machine whose scheduler and tracer the injectors
	// hook (required).
	Kernel *kernel.Kernel
	// Probes is the attached batch observer, required only for plans
	// containing ProbeChurn faults.
	Probes ProbeSet
	// Net is the network whose links NetemShift reshapes, required only
	// for plans containing NetemShift faults.
	Net *netsim.Network
}

// injector is one armed fault instance with its private random stream.
type injector struct {
	f      Fault
	rng    *rand.Rand
	active bool
	stop   bool      // polled by NoisyNeighbor tenant threads
	tick   sim.Timer // MigrationStorm's pending flush
}

// Controller is an armed plan: it owns the scheduled events and can
// undo everything with Clear.
type Controller struct {
	tgt     Target
	events  []sim.Timer
	injs    []*injector
	stalls  int // active RingStall windows
	applied map[string]int
	lastErr error
	cleared bool
}

// faultSeed derives an injector's private seed from the plan seed and
// fault index only, so streams are independent of arming order and of
// every other RNG in the simulation.
func faultSeed(seed int64, i int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	return int64(x & (1<<63 - 1))
}

// Arm validates plan and schedules its faults on tgt's event loop at
// offsets relative to now. It consumes no simulation entropy: arming
// (or arming then clearing) never changes what an unfaulted run sees.
func Arm(plan Plan, tgt Target) (*Controller, error) {
	if tgt.Kernel == nil {
		return nil, fmt.Errorf("faults: plan %q: nil target kernel", plan.Name)
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	for _, f := range plan.Faults {
		if f.Kind == ProbeChurn && tgt.Probes == nil {
			return nil, fmt.Errorf("faults: plan %q: probe-churn needs an attached observer", plan.Name)
		}
		if f.Kind == NetemShift && tgt.Net == nil {
			return nil, fmt.Errorf("faults: plan %q: netem-shift needs a target network", plan.Name)
		}
	}
	c := &Controller{tgt: tgt, applied: make(map[string]int)}
	env := tgt.Kernel.Env()
	for i, f := range plan.Faults {
		inj := &injector{f: f.withDefaults(), rng: rand.New(rand.NewSource(faultSeed(plan.Seed, i)))}
		c.injs = append(c.injs, inj)
		c.events = append(c.events, env.Post(f.Start, func() { c.start(inj) }))
		if f.Duration > 0 {
			c.events = append(c.events, env.Post(f.Start+f.Duration, func() { c.end(inj) }))
		}
	}
	return c, nil
}

// MustArm is Arm but panics on error.
func MustArm(plan Plan, tgt Target) *Controller {
	c, err := Arm(plan, tgt)
	if err != nil {
		panic(err)
	}
	return c
}

func (c *Controller) note(what string) { c.applied[what]++ }

func (c *Controller) start(inj *injector) {
	if inj.active || c.cleared {
		return
	}
	inj.active = true
	c.note(inj.f.Kind.String())
	k := c.tgt.Kernel
	switch inj.f.Kind {
	case CPUOffline:
		k.OfflineCPUs(inj.f.CPUs)
	case MigrationStorm:
		c.flush(inj)
	case ClockJitter:
		amp := int64(inj.f.Amplitude)
		var last uint64
		k.Tracer().SetClockWarp(func(raw uint64) uint64 {
			// Non-negative skew, floored at the previous reading:
			// jitter must not make the probe clock run backwards or
			// the probes' unsigned deltas would wrap.
			out := raw + uint64(inj.rng.Int63n(amp))
			if out < last {
				out = last
			}
			last = out
			return out
		})
	case NoisyNeighbor:
		c.spawnNeighbor(inj)
	case RingStall:
		c.stalls++
	case ProbeChurn:
		c.tgt.Probes.Detach()
	case NetemShift:
		c.tgt.Net.Reshape(inj.f.Netem)
	}
}

func (c *Controller) end(inj *injector) {
	if !inj.active {
		return
	}
	inj.active = false
	k := c.tgt.Kernel
	switch inj.f.Kind {
	case CPUOffline:
		// Restores every offlined CPU: concurrent CPUOffline windows
		// do not compose (the standard plans never overlap them).
		k.OnlineAllCPUs()
	case MigrationStorm:
		inj.tick.Cancel()
	case ClockJitter:
		k.Tracer().SetClockWarp(nil)
	case NoisyNeighbor:
		inj.stop = true
	case RingStall:
		c.stalls--
	case ProbeChurn:
		if err := c.tgt.Probes.Reattach(); err != nil {
			c.lastErr = err
		}
	case NetemShift:
		c.tgt.Net.ClearReshape()
	}
}

// flush performs one affinity flush and schedules the next.
func (c *Controller) flush(inj *injector) {
	if !inj.active || c.cleared {
		return
	}
	c.tgt.Kernel.FlushCPUAffinity()
	c.note("affinity-flush")
	inj.tick = c.tgt.Kernel.Env().Post(inj.f.Period, func() { c.flush(inj) })
}

// spawnNeighbor launches the background tenant: Threads phase-staggered
// threads, each looping a send-family syscall with a CPU burn, paced at
// Period. They stop at the fault window's end (or Clear).
func (c *Controller) spawnNeighbor(inj *injector) {
	proc := c.tgt.Kernel.NewProcess("neighbor")
	for i := 0; i < inj.f.Threads; i++ {
		phase := time.Duration(i) * inj.f.Period / time.Duration(inj.f.Threads)
		proc.SpawnThread(fmt.Sprintf("noise%d", i), func(t *kernel.Thread) {
			t.Sleep(phase)
			for !inj.stop {
				t.Burn(kernel.SysSendto, [6]uint64{}, inj.f.Burn)
				t.Sleep(inj.f.Period)
			}
		})
	}
}

// RingStalled reports whether a RingStall window is open; the harness
// skips streaming drains while true.
func (c *Controller) RingStalled() bool { return c.stalls > 0 }

// Applied returns activation counts per injector kind (plus one
// "affinity-flush" entry per storm tick), for reports and tests.
func (c *Controller) Applied() map[string]int {
	out := make(map[string]int, len(c.applied))
	for k, v := range c.applied {
		out[k] = v
	}
	return out
}

// Err returns the first undo failure (probe reattach), if any.
func (c *Controller) Err() error { return c.lastErr }

// Clear cancels every pending injection and undoes the active ones,
// returning the kernel to its unfaulted configuration. Idempotent.
func (c *Controller) Clear() {
	if c.cleared {
		return
	}
	c.cleared = true
	for _, ev := range c.events {
		ev.Cancel()
	}
	for _, inj := range c.injs {
		if inj.active {
			c.end(inj)
		}
	}
}
