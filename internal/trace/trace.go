package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"reqlens/internal/kernel"
	"reqlens/internal/sim"
)

// Event is one syscall boundary crossing.
type Event struct {
	Time    sim.Time
	PidTgid uint64
	NR      int
	Enter   bool
	Ret     int64
}

// TID returns the thread id half of PidTgid.
func (e Event) TID() int { return int(uint32(e.PidTgid)) }

// String renders the event as a trace line.
func (e Event) String() string {
	dir := "exit "
	if e.Enter {
		dir = "enter"
	}
	return fmt.Sprintf("%12v tid=%-6d %s %-12s ret=%d",
		time.Duration(e.Time), e.TID(), dir, kernel.SyscallName(e.NR), e.Ret)
}

// Filter returns the events matching pred.
func Filter(events []Event, pred func(Event) bool) []Event {
	var out []Event
	for _, e := range events {
		if pred(e) {
			out = append(out, e)
		}
	}
	return out
}

// EnterTimes extracts the entry timestamps of syscalls selected by nrPred,
// aggregated across all threads into one sorted trace — the paper's
// "consider the application as a whole" strategy.
func EnterTimes(events []Event, nrPred func(int) bool) []sim.Time {
	var ts []sim.Time
	for _, e := range events {
		if e.Enter && nrPred(e.NR) {
			ts = append(ts, e.Time)
		}
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	return ts
}

// PairDurations matches sys_enter/sys_exit pairs per thread for syscalls
// selected by nrPred and returns the call durations.
func PairDurations(events []Event, nrPred func(int) bool) []time.Duration {
	open := make(map[uint64]sim.Time) // pid_tgid -> enter time
	var out []time.Duration
	for _, e := range events {
		if !nrPred(e.NR) {
			continue
		}
		if e.Enter {
			open[e.PidTgid] = e.Time
			continue
		}
		if start, ok := open[e.PidTgid]; ok {
			out = append(out, e.Time.Sub(start))
			delete(open, e.PidTgid)
		}
	}
	return out
}

// CountByName tallies events (enters only) per syscall name.
func CountByName(events []Event) map[string]uint64 {
	out := make(map[string]uint64)
	for _, e := range events {
		if e.Enter {
			out[kernel.SyscallName(e.NR)]++
		}
	}
	return out
}

// Phase classifies syscalls by lifecycle role, as in Fig. 1.
type Phase int

// Phases of an application's syscall stream.
const (
	PhaseSetup   Phase = iota // socket/bind/listen/accept/epoll_ctl/mmap/open
	PhaseRequest              // recv/send/poll: the request-processing loop
	PhaseOther
)

func (p Phase) String() string {
	switch p {
	case PhaseSetup:
		return "setup"
	case PhaseRequest:
		return "request"
	}
	return "other"
}

// PhaseOf classifies one syscall number.
func PhaseOf(nr int) Phase {
	switch nr {
	case kernel.SysSocket, kernel.SysBind, kernel.SysListen, kernel.SysAccept,
		kernel.SysEpollCtl, kernel.SysMmap, kernel.SysOpenat, kernel.SysClone:
		return PhaseSetup
	}
	if kernel.RecvFamily(nr) || kernel.SendFamily(nr) || kernel.PollFamily(nr) {
		return PhaseRequest
	}
	return PhaseOther
}

// RequestOriented reports whether nr belongs to the "extracted subset"
// of Fig. 1(c): the syscalls used for request-level observability.
func RequestOriented(nr int) bool { return PhaseOf(nr) == PhaseRequest }

// PhaseSummary describes one contiguous run of same-phase syscalls.
type PhaseSummary struct {
	Phase Phase
	Start sim.Time
	End   sim.Time
	Calls int
}

// Segment compresses an event stream into contiguous phase runs — the
// structure visible in Fig. 1(b): a setup burst, then the long
// request-processing phase.
func Segment(events []Event) []PhaseSummary {
	var out []PhaseSummary
	for _, e := range events {
		if !e.Enter {
			continue
		}
		p := PhaseOf(e.NR)
		if n := len(out); n > 0 && out[n-1].Phase == p {
			out[n-1].End = e.Time
			out[n-1].Calls++
			continue
		}
		out = append(out, PhaseSummary{Phase: p, Start: e.Time, End: e.Time, Calls: 1})
	}
	return out
}

// Render formats events as a readable trace, capped at limit lines
// (0 = all).
func Render(events []Event, limit int) string {
	var b strings.Builder
	for i, e := range events {
		if limit > 0 && i >= limit {
			fmt.Fprintf(&b, "... %d more events\n", len(events)-limit)
			break
		}
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
