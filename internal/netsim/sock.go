package netsim

import (
	"reqlens/internal/kernel"
	"reqlens/internal/sim"
)

// EAGAIN is the non-blocking "no data" return value.
const EAGAIN = -11

// endpoint is the receive side of one connection direction: a FIFO of
// delivered messages plus the readers and pollers to wake on delivery.
type endpoint struct {
	queue   sim.FIFO[*Message]
	readers []*sim.Waker
	sock    *Sock
}

func (e *endpoint) deliver(m *Message) {
	e.queue.Push(m)
	for _, w := range e.readers {
		w.Wake()
	}
	e.readers = e.readers[:0]
	if e.sock != nil {
		for _, ep := range e.sock.epolls {
			ep.notify()
		}
	}
}

// Sock is one side of an established connection.
type Sock struct {
	net    *Network
	fd     int
	rx     *endpoint
	tx     *pipe
	epolls []*Epoll
	peerFD int
}

// FD returns the socket's file descriptor number.
func (s *Sock) FD() int { return s.fd }

// Readable reports whether a message is waiting (without a syscall).
func (s *Sock) Readable() bool { return s.rx.queue.Len() > 0 }

// QueueLen returns the number of queued messages (diagnostics).
func (s *Sock) QueueLen() int { return s.rx.queue.Len() }

// NewConn creates an established connection: (a, b) are the two sides,
// each direction shaped by cfg. Used directly by tests; workloads
// usually go through Listen/Dial/Accept.
func (n *Network) NewConn(cfg Config) (a, b *Sock) {
	a = &Sock{net: n, fd: n.fd(), rx: &endpoint{}}
	b = &Sock{net: n, fd: n.fd(), rx: &endpoint{}}
	a.rx.sock = a
	b.rx.sock = b
	a.tx = &pipe{net: n, cfg: cfg, dst: b.rx}
	b.tx = &pipe{net: n, cfg: cfg, dst: a.rx}
	a.peerFD = b.fd
	b.peerFD = a.fd
	return a, b
}

// Send transmits m to the peer as syscall nr (sendto/sendmsg/write). It
// never blocks: buffers are unbounded, as for a server whose responses
// fit the socket buffer.
func (s *Sock) Send(t *kernel.Thread, nr int, m *Message) int64 {
	return t.Invoke(nr, [6]uint64{uint64(s.fd), uint64(m.Size)}, func() int64 {
		s.tx.send(m)
		return int64(m.Size)
	})
}

// TryRecv performs a non-blocking receive as syscall nr (read/recvfrom/
// recvmsg), returning EAGAIN when no message is queued — the pattern of
// epoll-driven servers.
func (s *Sock) TryRecv(t *kernel.Thread, nr int) (*Message, int64) {
	var m *Message
	ret := t.Invoke(nr, [6]uint64{uint64(s.fd)}, func() int64 {
		if s.rx.queue.Len() == 0 {
			return EAGAIN
		}
		m = s.rx.queue.Pop()
		return int64(m.Size)
	})
	return m, ret
}

// Recv performs a blocking receive as syscall nr: the syscall's duration
// includes the wait for data.
func (s *Sock) Recv(t *kernel.Thread, nr int) *Message {
	var m *Message
	t.Invoke(nr, [6]uint64{uint64(s.fd)}, func() int64 {
		for s.rx.queue.Len() == 0 {
			s.rx.readers = append(s.rx.readers, t.Waker())
			t.Park()
		}
		m = s.rx.queue.Pop()
		return int64(m.Size)
	})
	return m
}

// SendBypass transmits without any syscall: the io_uring-style
// kernel-bypass path of the paper's Section V-C limitation study.
func (s *Sock) SendBypass(m *Message) {
	s.tx.send(m)
}

// RecvBypass blocks for a message without any syscall (io_uring-style
// completion-queue wait).
func (s *Sock) RecvBypass(t *kernel.Thread) *Message {
	for s.rx.queue.Len() == 0 {
		s.rx.readers = append(s.rx.readers, t.Waker())
		t.Park()
	}
	m := s.rx.queue.Pop()
	return m
}

// TryRecvBypass pops a message without blocking or syscalls.
func (s *Sock) TryRecvBypass() *Message {
	if s.rx.queue.Len() == 0 {
		return nil
	}
	m := s.rx.queue.Pop()
	return m
}

// Listener accepts incoming connections.
type Listener struct {
	net     *Network
	cfg     Config
	pending []*Sock // server-side socks awaiting accept
	waiters []*sim.Waker
	epolls  []*Epoll
}

// Listen creates a listener whose accepted connections are shaped by cfg.
func (n *Network) Listen(cfg Config) *Listener {
	return &Listener{net: n, cfg: cfg}
}

// Dial connects a client thread to l: it issues the socket syscall,
// creates the connection pair, and enqueues the server side on the
// accept queue after one propagation delay. The client side is returned
// immediately (simplified handshake).
func (l *Listener) Dial(t *kernel.Thread) *Sock {
	var client *Sock
	t.Invoke(kernel.SysSocket, [6]uint64{}, func() int64 {
		var server *Sock
		client, server = l.net.NewConn(l.cfg)
		l.net.env.Post(l.net.effective(l.cfg).Delay, func() {
			l.pending = append(l.pending, server)
			for _, w := range l.waiters {
				w.Wake()
			}
			l.waiters = l.waiters[:0]
			for _, ep := range l.epolls {
				ep.notify()
			}
		})
		return int64(client.fd)
	})
	return client
}

// Accept blocks in an accept syscall until a connection is pending and
// returns the server-side socket.
func (l *Listener) Accept(t *kernel.Thread) *Sock {
	var s *Sock
	t.Invoke(kernel.SysAccept, [6]uint64{}, func() int64 {
		for len(l.pending) == 0 {
			l.waiters = append(l.waiters, t.Waker())
			t.Park()
		}
		s = l.pending[0]
		l.pending = l.pending[1:]
		return int64(s.fd)
	})
	return s
}

// TryAccept accepts without blocking, returning nil when no connection
// is pending.
func (l *Listener) TryAccept(t *kernel.Thread) *Sock {
	var s *Sock
	t.Invoke(kernel.SysAccept, [6]uint64{}, func() int64 {
		if len(l.pending) == 0 {
			return EAGAIN
		}
		s = l.pending[0]
		l.pending = l.pending[1:]
		return int64(s.fd)
	})
	return s
}

// Pending returns the accept-queue depth (diagnostics).
func (l *Listener) Pending() int { return len(l.pending) }
