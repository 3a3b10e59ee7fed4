package core

import (
	"errors"
	"fmt"
	"time"

	"reqlens/internal/ebpf"
	"reqlens/internal/kernel"
	"reqlens/internal/probes"
	"reqlens/internal/telemetry"
)

// Config selects the process and syscall families to observe. The
// syscall lists come from the application's I/O signature (Section IV-A
// tabulates them for the paper's workloads); Defaults covers the common
// families when the signature is unknown.
type Config struct {
	TGID int // process to observe (0 = everything; rarely useful)

	SendSyscalls []int
	RecvSyscalls []int
	PollSyscalls []int
}

// Observer is an attached send/recv/poll probe set with window
// bookkeeping. Its sink holds the cumulative statistics: the probes'
// aggregate maps (Attach), or a ring the probes also stream events into,
// folded in userspace (AttachStream; the ring-only half is stream.go).
type Observer struct {
	send, recv *probes.DeltaProbe
	poll       *probes.PollProbe
	k          *kernel.Kernel
	last       totals
	lastAt     time.Duration

	// The ring sink; ring is nil for the map sink.
	ring   *ebpf.RingBuf
	family map[int]int // syscall -> famSend, famRecv or famPoll
	cum    totals      // folded with the programs' own integer arithmetic
	events uint64      // events folded into the open window

	tel  [5]*telemetry.Counter // stream_events_total, then ringPos's; nil until Instrument
	seen [4]uint64             // ringPos when tel was last advanced
}

// totals is a cumulative send, recv and poll state.
type totals struct {
	send, recv probes.DeltaSnapshot
	poll       probes.PollSnapshot
}

// Attach builds, verifies and attaches the probe set on k's tracer with
// the map sink.
func Attach(k *kernel.Kernel, cfg Config) (*Observer, error) { return attach(k, cfg, 0) }

// MustAttach is Attach but panics on error.
func MustAttach(k *kernel.Kernel, cfg Config) *Observer { return probes.Must(Attach(k, cfg)) }

// attach is Attach and AttachStream: ringBytes 0 is the map sink.
func attach(k *kernel.Kernel, cfg Config, ringBytes int) (*Observer, error) {
	if len(cfg.SendSyscalls) == 0 || len(cfg.RecvSyscalls) == 0 || len(cfg.PollSyscalls) == 0 {
		return nil, fmt.Errorf("core: config must name send, recv and poll syscalls")
	}
	o := &Observer{k: k}
	suffix := ""
	var err error
	if ringBytes != 0 {
		if o.family, err = families(cfg); err != nil {
			return nil, err
		}
		o.ring = ebpf.NewRingBuf("stream_ring", ringBytes)
		suffix = "_s"
	}
	var errs [3]error
	o.send, errs[0] = probes.NewDeltaProbe("send"+suffix, cfg.TGID, cfg.SendSyscalls, o.ring)
	o.recv, errs[1] = probes.NewDeltaProbe("recv"+suffix, cfg.TGID, cfg.RecvSyscalls, o.ring)
	o.poll, errs[2] = probes.NewPollProbe("poll"+suffix, cfg.TGID, cfg.PollSyscalls, o.ring)
	if err := errors.Join(errs[:]...); err != nil {
		return nil, fmt.Errorf("core: probe set: %w", err)
	}
	if err := o.Reattach(); err != nil {
		return nil, err
	}
	o.rebase()
	return o, nil
}

// probe is what the observer uses of each probe's shared base.
type probe interface {
	Attach(*kernel.Tracer) error
	Detach()
	Instrument(*telemetry.Registry)
}

// set is the probe set in attach order.
func (o *Observer) set() []probe { return []probe{o.send, o.recv, o.poll} }

// Detach removes all probes.
func (o *Observer) Detach() {
	for _, p := range o.set() {
		p.Detach()
	}
}

// Reattach restores a detached probe set on the same tracer, all or
// none. The maps survive the detach window, so counters resume from
// their pre-detach values — exactly what a restarted agent re-attaching
// its programs to pinned maps observes. Calling it while attached is a
// no-op reattach (detach first, then attach).
func (o *Observer) Reattach() error {
	o.Detach()
	for _, p := range o.set() {
		if err := p.Attach(o.k.Tracer()); err != nil {
			o.Detach()
			return err
		}
	}
	return nil
}

// totals returns the cumulative state: read from the maps, or folded
// from the ring.
func (o *Observer) totals() totals {
	if o.ring != nil {
		return o.cum
	}
	return totals{o.send.Snapshot(), o.recv.Snapshot(), o.poll.Snapshot()}
}

func (o *Observer) rebase() {
	o.last, o.lastAt = o.totals(), time.Duration(o.k.Now())
	o.events = 0
}

// DeltaStats summarizes one syscall family over a window.
type DeltaStats struct {
	Calls       uint64
	RatePerSec  float64 // Eq. 1 estimate
	MeanDelta   time.Duration
	VarianceUS2 float64 // Eq. 2
}

// PollStats summarizes the poll family over a window.
type PollStats struct {
	Calls        uint64
	MeanDuration time.Duration
}

// Window is one sampled observation interval.
type Window struct {
	Duration time.Duration
	Send     DeltaStats
	Recv     DeltaStats
	Poll     PollStats
}

// RPSObsv is the headline throughput estimate (responses per second).
func (w Window) RPSObsv() float64 { return w.Send.RatePerSec }

// window turns two cumulative states d apart into the Window between
// them.
func window(d time.Duration, cur, last totals) Window {
	delta := func(cur, last probes.DeltaSnapshot) DeltaStats {
		s := cur.Sub(last)
		return DeltaStats{
			Calls:       s.Calls,
			RatePerSec:  s.RateObsv(),
			MeanDelta:   time.Duration(s.MeanDeltaNS()),
			VarianceUS2: s.VarianceUS2(),
		}
	}
	p := cur.poll.Sub(last.poll)
	return Window{
		Duration: d,
		Send:     delta(cur.send, last.send),
		Recv:     delta(cur.recv, last.recv),
		Poll:     PollStats{Calls: p.Count, MeanDuration: time.Duration(p.MeanNS())},
	}
}

// StreamWindow is one sample: the Window plus the ring sink's event
// and drop accounting, both zero for the map sink.
type StreamWindow struct {
	Window

	Events  uint64 // events folded into this window
	Dropped uint64 // cumulative producer-side drops at sample time
}

// Sample returns the window accumulated since the previous Sample (or
// attach) and starts a new one; the ring sink drains pending events
// first. Both sinks compute the Window with the same arithmetic, so as
// long as Dropped has not advanced a map sink and a ring sink on the
// same kernel agree exactly.
func (o *Observer) Sample() StreamWindow {
	o.Poll()
	w := StreamWindow{Events: o.events, Dropped: o.Dropped()}
	w.Window = window(time.Duration(o.k.Now())-o.lastAt, o.totals(), o.last)
	o.rebase()
	return w
}

// ProbePrograms returns the verified instruction counts of the attached
// programs (diagnostics and documentation).
func (o *Observer) ProbePrograms() map[string]int {
	poll := o.poll.Programs()
	return map[string]int{"send": o.send.Programs()[0].Len(), "recv": o.recv.Programs()[0].Len(),
		"poll_enter": poll[0].Len(), "poll_exit": poll[1].Len()}
}

// Instrument records the probe set's one-time verification cost into r:
// verifier_programs_total (programs admitted) and verifier_states_total
// (abstract states the verifier explored across them). The ring sink
// first wires in its ring accounting (stream_events_total and the
// ringbuf_* counters), counting only activity from now on. A nil
// registry is a no-op.
func (o *Observer) Instrument(r *telemetry.Registry) {
	if r == nil {
		return
	}
	if o.ring != nil {
		o.instrumentRing(r)
	}
	for _, p := range o.set() {
		p.Instrument(r)
	}
}
