package netsim

import (
	"time"

	"reqlens/internal/kernel"
	"reqlens/internal/sim"
)

// Epoll is an epoll instance (or, with the select syscall number, a
// select-style readiness wait — Tailbench's legacy path in the paper).
// Threads block in Wait until a registered socket becomes readable or
// the timeout expires; the duration of that syscall is the paper's
// saturation-slack signal (Fig. 4).
type Epoll struct {
	socks   []*Sock
	waiters []*sim.Waker
}

// NewEpoll creates an epoll instance.
func (n *Network) NewEpoll() *Epoll {
	return &Epoll{}
}

// Add registers s for readiness. When t is non-nil an epoll_ctl syscall
// is issued (visible in traces, as in the paper's Fig. 1 setup phase).
func (ep *Epoll) Add(t *kernel.Thread, s *Sock) {
	reg := func() int64 {
		ep.socks = append(ep.socks, s)
		s.rx.epolls = append(s.rx.epolls, ep)
		return 0
	}
	if t == nil {
		reg()
	} else {
		t.Invoke(kernel.SysEpollCtl, [6]uint64{uint64(s.fd)}, reg)
	}
	if s.Readable() {
		ep.notify() // data arrived before registration
	}
}

// notify wakes all waiters; they re-check readiness.
func (ep *Epoll) notify() {
	for _, w := range ep.waiters {
		w.Wake()
	}
	ep.waiters = ep.waiters[:0]
}

// TotalQueued sums the receive-queue depths of all registered sockets —
// the backlog a server's queue-maintenance pass must walk.
func (ep *Epoll) TotalQueued() int {
	n := 0
	for _, s := range ep.socks {
		n += s.rx.queue.Len()
	}
	return n
}

// ready appends the readable sockets to out, which is empty.
func (ep *Epoll) ready(out []*Sock) []*Sock {
	for _, s := range ep.socks {
		if s.Readable() {
			out = append(out, s)
		}
	}
	return out
}

// Wait blocks as syscall nr (SysEpollWait or SysSelect) until readiness
// or timeout (timeout <= 0 waits forever). It returns the readable
// sockets; an empty slice means the timeout fired. The slice is the
// thread's own and is reused by its next Wait.
func (ep *Epoll) Wait(t *kernel.Thread, nr int, timeout time.Duration) []*Sock {
	f := frameOf(t)
	f.ep, f.timeout, f.deadline, f.timer, f.ready = ep, timeout, -1, sim.Timer{}, f.ready[:0]
	t.Syscall(nr, [6]uint64{}, waitBody)
	return f.ready
}

// waitBody is Wait's body. Its first run fixes the deadline; every run
// returns what is ready, or times out, or joins the waiters and arms the
// timeout once. A timeout leaves the waker on the waiter list.
func waitBody(t *kernel.Thread) (int64, bool) {
	f := t.Ops.(*frame)
	if f.deadline < 0 && f.timeout > 0 {
		f.deadline = t.Now().Add(f.timeout)
	}
	if f.ready = f.ep.ready(f.ready); len(f.ready) > 0 {
		f.timer.Cancel()
		return int64(len(f.ready)), true
	}
	if f.deadline >= 0 && t.Now() >= f.deadline {
		return 0, true
	}
	f.ep.waiters = append(f.ep.waiters, t.Waker())
	if f.deadline >= 0 && f.timer == (sim.Timer{}) {
		f.timer = t.Waker().WakeAfter(f.deadline.Sub(t.Now()))
	}
	return 0, false
}
