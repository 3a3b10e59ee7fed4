package netsim

import (
	"time"

	"reqlens/internal/kernel"
	"reqlens/internal/sim"
)

// Epoll is an epoll instance (or, with the select syscall number, a
// select-style readiness wait — Tailbench's legacy path in the paper).
// Threads block in Wait until a registered socket or listener becomes
// readable or the timeout expires; the duration of that syscall is the
// paper's saturation-slack signal (Fig. 4).
type Epoll struct {
	net       *Network
	socks     []*Sock
	listeners []*Listener
	waiters   []*sim.Waker
}

// NewEpoll creates an epoll instance.
func (n *Network) NewEpoll() *Epoll {
	return &Epoll{net: n}
}

// Add registers s for readiness. When t is non-nil an epoll_ctl syscall
// is issued (visible in traces, as in the paper's Fig. 1 setup phase).
func (ep *Epoll) Add(t *kernel.Thread, s *Sock) {
	reg := func() int64 {
		ep.socks = append(ep.socks, s)
		s.epolls = append(s.epolls, ep)
		return 0
	}
	if t != nil {
		t.Invoke(kernel.SysEpollCtl, [6]uint64{uint64(s.fd)}, reg)
	} else {
		reg()
	}
	if s.Readable() {
		ep.notify() // data arrived before registration
	}
}

// AddListener registers l for accept-readiness.
func (ep *Epoll) AddListener(t *kernel.Thread, l *Listener) {
	reg := func() int64 {
		ep.listeners = append(ep.listeners, l)
		l.epolls = append(l.epolls, ep)
		return 0
	}
	if t != nil {
		t.Invoke(kernel.SysEpollCtl, [6]uint64{}, reg)
	} else {
		reg()
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

// readyCount counts readable sockets and, in total, those plus pending
// connections on registered listeners.
func (ep *Epoll) readyCount() (socks, total int) {
	for _, s := range ep.socks {
		if s.Readable() {
			socks++
		}
	}
	total = socks
	for _, l := range ep.listeners {
		total += len(l.pending)
	}
	return socks, total
}

// ready collects the n readable sockets (nil when there are none).
func (ep *Epoll) ready(n int) []*Sock {
	if n == 0 {
		return nil
	}
	out := make([]*Sock, 0, n)
	for _, s := range ep.socks {
		if s.Readable() {
			out = append(out, s)
		}
	}
	return out
}

// Wait blocks as syscall nr (SysEpollWait or SysSelect) until readiness
// or timeout (timeout <= 0 waits forever). It returns the readable
// sockets; an empty slice means the timeout fired.
func (ep *Epoll) Wait(t *kernel.Thread, nr int, timeout time.Duration) []*Sock {
	var out []*Sock
	t.Invoke(nr, [6]uint64{}, func() int64 {
		var timeoutEv *sim.Event
		deadline := sim.Time(-1)
		if timeout > 0 {
			deadline = t.Now().Add(timeout)
		}
		for {
			if socks, n := ep.readyCount(); n > 0 {
				out = ep.ready(socks)
				if timeoutEv != nil {
					timeoutEv.Cancel()
				}
				return int64(n)
			}
			if deadline >= 0 && t.Now() >= deadline {
				return 0
			}
			ep.waiters = append(ep.waiters, t.Waker())
			if deadline >= 0 && timeoutEv == nil {
				timeoutEv = t.Waker().WakeAfter(deadline.Sub(t.Now()))
			}
			t.Park()
		}
	})
	return out
}
