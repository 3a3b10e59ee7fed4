package trace

import "reqlens/internal/kernel"

// Recorder captures ground-truth events for one process (tgid) or all
// (tgid = 0) via a kernel listener. Unlike an eBPF probe it charges no
// cost to the traced threads, which makes it the reference for overhead
// and accuracy comparisons.
type Recorder struct {
	tgid   int
	events []Event
	limit  int
}

// NewRecorder attaches a recorder to k. limit caps retained events
// (0 = unlimited).
func NewRecorder(k *kernel.Kernel, tgid int, limit int) *Recorder {
	r := &Recorder{tgid: tgid, limit: limit}
	k.Tracer().AddListener(func(ev kernel.SyscallEvent) {
		if r.tgid != 0 && int(ev.Thread.PidTgid()>>32) != r.tgid {
			return
		}
		if r.limit > 0 && len(r.events) >= r.limit {
			return
		}
		r.events = append(r.events, Event{
			Time:    ev.Time,
			PidTgid: ev.Thread.PidTgid(),
			NR:      ev.NR,
			Enter:   ev.Enter,
			Ret:     ev.Ret,
		})
	})
	return r
}

// Events returns the captured stream in time order.
func (r *Recorder) Events() []Event { return r.events }

// Reset discards captured events.
func (r *Recorder) Reset() { r.events = r.events[:0] }
