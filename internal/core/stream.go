package core

import (
	"fmt"

	"reqlens/internal/kernel"
	"reqlens/internal/probes"
	"reqlens/internal/telemetry"
)

// DefaultStreamBytes is the ring sink's default capacity: 4 MiB holds
// ~100k in-flight metric events, ample for any poll interval the harness
// uses, yet bounded, with its overflow observable through Dropped. It is
// a bound, not an allocation: the ring's host store grows only to the
// most bytes left unconsumed between two polls.
const DefaultStreamBytes = 1 << 22

// AttachStream is Attach with the ring sink: the probes also stream one
// metric event per observation into one bounded ring of ringBytes
// (0 = DefaultStreamBytes, else a power of two), folded as it drains —
// no trace retention. A ring that never overflows gives Windows
// bit-identical to the map sink's; Dropped accounts every lost event.
// The three families share the ring and are told apart by syscall
// number, so their sets must be disjoint.
func AttachStream(k *kernel.Kernel, cfg Config, ringBytes int) (*Observer, error) {
	if ringBytes == 0 {
		ringBytes = DefaultStreamBytes
	}
	return attach(k, cfg, ringBytes)
}

// MustAttachStream is AttachStream but panics on error.
func MustAttachStream(k *kernel.Kernel, cfg Config, ringBytes int) *Observer {
	return probes.Must(AttachStream(k, cfg, ringBytes))
}

// Syscall families, as families numbers them; 0 is no family.
const (
	famSend = 1 + iota
	famRecv
	famPoll
)

// families maps each syscall of cfg to its family, and rejects a
// syscall in more than one.
func families(cfg Config) (map[int]int, error) {
	names := [...]string{famSend: "send", famRecv: "recv", famPoll: "poll"}
	fam := map[int]int{}
	for f, nrs := range [...][]int{famSend: cfg.SendSyscalls, famRecv: cfg.RecvSyscalls, famPoll: cfg.PollSyscalls} {
		for _, nr := range nrs {
			if prev := fam[nr]; prev != 0 {
				return nil, fmt.Errorf("core: syscall %d in both %s and %s families; streaming needs disjoint sets", nr, names[prev], names[f])
			}
			fam[nr] = f
		}
	}
	return fam, nil
}

// Poll drains the ring into the running statistics and returns how many
// events it folded (the map sink has none). Call it periodically, or let
// Sample: a lagging consumer shows up in Dropped, never in blocking.
func (o *Observer) Poll() int {
	if o.ring == nil {
		return 0
	}
	n := 0
	o.ring.Consume(func(rec []byte) {
		if ev, err := probes.DecodeEvent(rec); err == nil {
			o.fold(ev)
			n++
		}
	})
	o.events += uint64(n)
	if o.tel[0] != nil {
		o.tel[0].Add(uint64(n))
		pos := o.ringPos()
		for i, c := range o.tel[1:] {
			c.Add(pos[i] - o.seen[i])
		}
		o.seen = pos
	}
	return n
}

// ringPos reads the ring's cumulative bytes produced and consumed,
// records dropped and bytes dropped.
func (o *Observer) ringPos() [4]uint64 {
	return [4]uint64{o.ring.ProducerPos(), o.ring.ConsumerPos(), o.ring.Dropped(), o.ring.DroppedBytes()}
}

// instrumentRing wires the ring accounting into r (see Instrument).
// Drops surface at every Poll, not only when a window is sampled.
func (o *Observer) instrumentRing(r *telemetry.Registry) {
	for i, name := range []string{"stream_events_total", "ringbuf_bytes_produced_total",
		"ringbuf_bytes_consumed_total", "ringbuf_records_dropped_total", "ringbuf_bytes_dropped_total"} {
		o.tel[i] = r.Counter(name)
	}
	o.seen = o.ringPos()
}

// fold replays one event into the cumulative aggregates, mirroring the
// in-kernel map updates instruction for instruction (integer microsecond
// quantization included) so reconstructed windows are bit-identical.
func (o *Observer) fold(ev probes.MetricEvent) {
	switch ev.Kind {
	case probes.EventDelta:
		cum := &o.cum.send
		switch o.family[ev.NR] {
		case famSend:
		case famRecv:
			cum = &o.cum.recv
		default:
			return // not ours (tgid filter should prevent this)
		}
		cum.Calls++
		cum.LastTS = uint64(ev.Time)
		if ev.First {
			cum.FirstTS = uint64(ev.Time)
			return
		}
		cum.Count++
		cum.SumNS += ev.Value
		us := ev.Value / 1000
		cum.SumSqUS += us * us
	case probes.EventPoll:
		o.cum.poll.Count++
		o.cum.poll.SumNS += ev.Value
	}
}

// Dropped returns how many events the producers dropped to a full ring
// (0 for the map sink), current without a drain.
func (o *Observer) Dropped() uint64 {
	if o.ring == nil {
		return 0
	}
	return o.ring.Dropped()
}
