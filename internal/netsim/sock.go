package netsim

import (
	"time"

	"reqlens/internal/kernel"
	"reqlens/internal/sim"
)

// EAGAIN is the non-blocking "no data" return value.
const EAGAIN = -11

// inbox is a receive queue that readers block on: a connection
// direction's delivered messages, or a listener's pending connections.
type inbox[T any] struct {
	queue   sim.FIFO[T]
	waiters []*sim.Waker
	epolls  []*Epoll
}

// push queues v and wakes the blocked readers, then the epolls watching.
func (b *inbox[T]) push(v T) {
	b.queue.Push(v)
	for _, w := range b.waiters {
		w.Wake()
	}
	b.waiters = b.waiters[:0]
	for _, ep := range b.epolls {
		ep.notify()
	}
}

// pop is the core of a receive body: it pops the head into v and reports
// ok, or with nothing queued it is done at once, or, blocking, joins the
// waiters and is not.
func (b *inbox[T]) pop(t *kernel.Thread, block bool, v *T) (ok, done bool) {
	if b.queue.Len() > 0 {
		*v = b.queue.Pop()
		return true, true
	}
	if block {
		b.waiters = append(b.waiters, t.Waker())
	}
	return false, !block
}

// Sock is one side of an established connection.
type Sock struct {
	fd int
	rx *inbox[Message]
	tx *pipe
}

// Readable reports whether a message is waiting (without a syscall).
func (s *Sock) Readable() bool { return s.rx.queue.Len() > 0 }

// NewConn creates an established connection: (a, b) are the two sides,
// each direction shaped by cfg. Used directly by tests; workloads
// usually go through Listen/Dial/Accept.
func (n *Network) NewConn(cfg Config) (a, b *Sock) {
	a = &Sock{fd: n.fd(), rx: &inbox[Message]{}}
	b = &Sock{fd: n.fd(), rx: &inbox[Message]{}}
	a.tx = newPipe(n, cfg, b.rx)
	b.tx = newPipe(n, cfg, a.rx)
	return a, b
}

// frame holds one thread's operands for netsim's syscall bodies, which
// read them from the thread (kernel.Thread.Ops) instead of from a closure
// allocated per call; a thread issues one syscall at a time.
type frame struct {
	sock     *Sock
	l        *Listener
	ep       *Epoll
	msg      Message
	got      bool // the last receive popped msg; false for EAGAIN
	block    bool // wait for a message or connection instead of returning EAGAIN
	timeout  time.Duration
	deadline sim.Time  // Wait's, -1 until its body first runs or with no timeout
	timer    sim.Timer // Wait's timeout wake-up, once armed
	ready    []*Sock   // Wait's result, reused by the thread's next Wait
}

// frameOf returns t's frame, making it on t's first netsim syscall.
func frameOf(t *kernel.Thread) *frame {
	f, ok := t.Ops.(*frame)
	if !ok {
		f = new(frame)
		t.Ops = f
	}
	return f
}

// Send transmits m to the peer as syscall nr (sendto/sendmsg/write). It
// never blocks: buffers are unbounded, as for a server whose responses
// fit the socket buffer.
func (s *Sock) Send(t *kernel.Thread, nr int, m Message) int64 {
	f := frameOf(t)
	f.sock, f.msg = s, m
	return t.Syscall(nr, [6]uint64{uint64(s.fd), uint64(m.Size)}, sendBody)
}

func sendBody(t *kernel.Thread) (int64, bool) {
	f := t.Ops.(*frame)
	f.sock.tx.send(f.msg)
	return int64(f.msg.Size), true
}

// TryRecv performs a non-blocking receive as syscall nr (read/recvfrom/
// recvmsg), returning EAGAIN when no message is queued — the pattern of
// epoll-driven servers.
func (s *Sock) TryRecv(t *kernel.Thread, nr int) (Message, int64) { return s.recv(t, nr, false) }

// Recv performs a blocking receive as syscall nr: the syscall's duration
// includes the wait for data.
func (s *Sock) Recv(t *kernel.Thread, nr int) Message {
	m, _ := s.recv(t, nr, true)
	return m
}

func (s *Sock) recv(t *kernel.Thread, nr int, block bool) (Message, int64) {
	f := frameOf(t)
	f.sock, f.msg, f.got, f.block = s, Message{}, false, block
	ret := t.Syscall(nr, [6]uint64{uint64(s.fd)}, recvBody)
	return f.msg, ret
}

func recvBody(t *kernel.Thread) (int64, bool) {
	f := t.Ops.(*frame)
	ok, done := f.sock.rx.pop(t, f.block, &f.msg)
	if f.got = ok; !ok {
		return EAGAIN, done
	}
	return int64(f.msg.Size), true
}

// SendBypass transmits without any syscall: the io_uring-style
// kernel-bypass path of the paper's Section V-C limitation study.
func (s *Sock) SendBypass(m Message) {
	s.tx.send(m)
}

// TryRecvBypass pops a message without blocking or syscalls; ok is false
// when none is queued.
func (s *Sock) TryRecvBypass() (m Message, ok bool) {
	ok, _ = s.rx.pop(nil, false, &m)
	return m, ok
}

// Listener accepts incoming connections.
type Listener struct {
	inbox[*Sock] // server-side socks awaiting accept
	net          *Network
	cfg          Config
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
	f := frameOf(t)
	t.Invoke(kernel.SysSocket, [6]uint64{}, func() int64 {
		var server *Sock
		f.sock, server = l.net.NewConn(l.cfg)
		l.net.env.Post(l.net.effective(l.cfg).Delay, func() { l.push(server) })
		return int64(f.sock.fd)
	})
	return f.sock
}

// Dialed returns the socket of t's last Dial, Received the message of
// its last Recv or TryRecv (ok false for EAGAIN), and Ready the readable
// sockets of its last Epoll.Wait: a loop thread
// (kernel.Process.SpawnLoop), whose calls return before a wait is over,
// reads them on its next call.
func Dialed(t *kernel.Thread) *Sock { return frameOf(t).sock }

// Received returns the message of t's last Recv or TryRecv; see Dialed.
func Received(t *kernel.Thread) (m Message, ok bool) {
	f := frameOf(t)
	return f.msg, f.got
}

// Ready returns the sockets of t's last Epoll.Wait, in the slice the
// thread's next Wait reuses; see Dialed.
func Ready(t *kernel.Thread) []*Sock { return frameOf(t).ready }

// Accept blocks in an accept syscall until a connection is pending and
// returns the server-side socket.
func (l *Listener) Accept(t *kernel.Thread) *Sock { return l.accept(t, true) }

func (l *Listener) accept(t *kernel.Thread, block bool) *Sock {
	f := frameOf(t)
	f.l, f.sock, f.block = l, nil, block
	t.Syscall(kernel.SysAccept, [6]uint64{}, acceptBody)
	return f.sock
}

func acceptBody(t *kernel.Thread) (int64, bool) {
	f := t.Ops.(*frame)
	if ok, done := f.l.pop(t, f.block, &f.sock); !ok {
		return EAGAIN, done
	}
	return int64(f.sock.fd), true
}
