package core

import (
	"time"

	"reqlens/internal/kernel"
	"reqlens/internal/probes"
	"reqlens/internal/telemetry"
)

// WaitProfile is the attached scheduler-state observer: the wait-state
// probe pair on sched:sched_switch / sched:sched_wakeup plus window
// bookkeeping for one tgid. Where Observer reads the request path
// (syscall deltas) and probes.AttributionProbe reads "who" (sketches),
// WaitProfile reads "why": it decomposes a process's wall-clock into on-CPU,
// runnable (runqueue wait) and blocked time, turning the latency slack
// the poll signal exposes into an explanation — queueing for the CPU
// looks saturated, blocking on I/O looks delayed.
type WaitProfile struct {
	probe *probes.WaitStateProbe
	tgid  uint64

	last probes.WaitTimes
}

// AttachWaitProfile builds, verifies and attaches the wait-state probe
// pair on k's tracer, tracking tgid's windows: the programs account for
// tgid alone and exit early on every other process's switch.
func AttachWaitProfile(k *kernel.Kernel, tgid int) (*WaitProfile, error) {
	p, err := probes.NewWaitStateProbe("wait", tgid)
	if err != nil {
		return nil, err
	}
	if err := p.Attach(k.Tracer()); err != nil {
		return nil, err
	}
	return &WaitProfile{probe: p, tgid: uint64(tgid),
		last: p.Snapshot()[uint64(tgid)]}, nil
}

// MustAttachWaitProfile is AttachWaitProfile but panics on error.
func MustAttachWaitProfile(k *kernel.Kernel, tgid int) *WaitProfile {
	return probes.Must(AttachWaitProfile(k, tgid))
}

// WaitWindow is one window's wait-state decomposition for the tracked
// tgid. The three durations partition the process's scheduler-visible
// time: everything between its first and last transition in the window
// lands in exactly one of them.
type WaitWindow struct {
	OnCPU    time.Duration // executing on a CPU
	Runnable time.Duration // runnable, waiting in the run queue
	Blocked  time.Duration // off-CPU and not runnable (I/O, sleep, idle)
}

// Total is the scheduler-accounted time in the window.
func (w WaitWindow) Total() time.Duration { return w.OnCPU + w.Runnable + w.Blocked }

// Shares returns the on-CPU / runnable / blocked fractions of the
// accounted time. They sum to 1 whenever Total is positive; a window
// with no accounted time returns all zeros.
func (w WaitWindow) Shares() (oncpu, runnable, blocked float64) {
	t := float64(w.Total())
	if t <= 0 {
		return 0, 0, 0
	}
	return float64(w.OnCPU) / t, float64(w.Runnable) / t, float64(w.Blocked) / t
}

// Sample reads the wait-state maps, returns the decomposition
// accumulated since the previous Sample (or Attach), and starts a new
// window.
func (wp *WaitProfile) Sample() WaitWindow {
	cur := wp.probe.Snapshot()[wp.tgid]
	d := cur.Sub(wp.last)
	w := WaitWindow{
		OnCPU:    time.Duration(d.OnCPUNS),
		Runnable: time.Duration(d.RunnableNS),
		Blocked:  time.Duration(d.BlockedNS),
	}
	wp.last = cur
	return w
}

// Instrument records the probe pair's verification cost into r.
func (wp *WaitProfile) Instrument(r *telemetry.Registry) {
	wp.probe.Instrument(r)
}
