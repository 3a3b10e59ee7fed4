package netsim

import (
	"math/rand"
	"time"

	"reqlens/internal/sim"
)

// Config is the per-link netem configuration (applied to each direction
// of a connection).
type Config struct {
	Delay  time.Duration // one-way propagation delay
	Jitter time.Duration // uniform extra delay in [0, Jitter)
	Loss   float64       // per-packet loss probability
	RTO    time.Duration // retransmission timeout (default 200ms)
}

// DefaultRTO is Linux's minimum TCP retransmission timeout.
const DefaultRTO = 200 * time.Millisecond

func (c Config) rto() time.Duration {
	if c.RTO <= 0 {
		return DefaultRTO
	}
	return c.RTO
}

// linkBytesPerNS is the link rate: 10 Gbit/s in bytes per nanosecond.
const linkBytesPerNS = 1.25

func txTime(size int) time.Duration {
	return time.Duration(float64(size) / linkBytesPerNS)
}

// Network owns connections and the shared randomness for loss/jitter.
type Network struct {
	env    *sim.Env
	rng    *rand.Rand
	nextFD int

	// shape, when non-nil, overrides every link's configuration — the
	// `tc qdisc change` analogue used for mid-run netem fault windows.
	shape *Config

	// global accounting for tests and reports
	packetsSent uint64
	packetsLost uint64
}

// New creates a network on env.
func New(env *sim.Env) *Network {
	return &Network{env: env, rng: env.NewRNG(), nextFD: 3}
}

func (n *Network) fd() int {
	n.nextFD++
	return n.nextFD
}

// Reshape overrides the configuration of every link — existing
// connections and ones dialed later — until ClearReshape, the way
// `tc qdisc change` swaps a live qdisc. In-flight messages keep the
// delivery times computed at send; only subsequent sends see cfg.
// Reshape consumes no randomness by itself, so reshaping to the same
// configuration is behaviour-neutral.
func (n *Network) Reshape(cfg Config) {
	n.shape = &cfg
}

// ClearReshape removes the Reshape override, returning every link to
// the configuration it was created with. No-op when nothing is shaped.
func (n *Network) ClearReshape() {
	n.shape = nil
}

// Shaped reports whether a Reshape override is in effect.
func (n *Network) Shaped() bool { return n.shape != nil }

// effective resolves a link's active configuration under any override.
func (n *Network) effective(cfg Config) Config {
	if n.shape != nil {
		return *n.shape
	}
	return cfg
}

// Message is one request or response payload in flight.
type Message struct {
	ID      uint64
	Size    int
	SentAt  sim.Time
	Payload any
}

// pipe is one direction of a connection: it applies netem policy and
// releases messages to the destination endpoint in order.
type pipe struct {
	net         *Network
	cfg         Config
	dst         *inbox[*Message]
	lastRelease sim.Time
	prevSend    sim.Time
	hasPrev     bool

	// inflight holds the sent, undelivered messages in send order. Every
	// send posts deliver0 at its arrival, and arrivals never decrease, so
	// each firing pops the message it was posted for.
	inflight sim.FIFO[*Message]
	deliver0 func()
}

func newPipe(n *Network, cfg Config, dst *inbox[*Message]) *pipe {
	p := &pipe{net: n, cfg: cfg, dst: dst}
	p.deliver0 = func() { p.dst.push(p.inflight.Pop()) }
	return p
}

// send schedules delivery of m according to delay, jitter, loss with
// TCP-like loss recovery, and head-of-line ordering.
//
// Loss recovery follows the two TCP regimes: on a busy pipelined
// connection, later segments generate duplicate ACKs and a loss recovers
// by fast retransmit in about one RTT; on a sparse connection a lost
// segment has nothing behind it and must wait out the retransmission
// timer (min 200ms on Linux), with exponential backoff on repeat loss.
// The regime split is why the paper's loss experiments barely perturb a
// 62k-RPS memcached yet wreck a 21-RPS inference server's tail.
func (p *pipe) send(m *Message) {
	cfg := p.net.effective(p.cfg)
	now := p.net.env.Now()
	gap := now.Sub(p.prevSend)
	dense := p.hasPrev && gap < 2*cfg.Delay+time.Millisecond
	p.prevSend = now
	p.hasPrev = true
	m.SentAt = now
	p.net.packetsSent++

	// Count retransmissions: each (re)transmission is lost independently.
	retx := 0
	for cfg.Loss > 0 && p.net.rng.Float64() < cfg.Loss {
		if retx == 0 {
			p.net.packetsLost++
		}
		retx++
		if retx > 16 { // give up resampling; deliver on the next try
			break
		}
	}
	var retxDelay time.Duration
	if retx > 0 {
		rto := cfg.rto()
		for i := 0; i < retx; i++ {
			if i == 0 && dense {
				// Fast retransmit: ~1 RTT once dup-ACKs arrive.
				fast := 2 * cfg.Delay
				if fast < time.Millisecond {
					fast = time.Millisecond
				}
				retxDelay += fast
				continue
			}
			// Timer path: RTO, then 2*RTO, 4*RTO, ...
			retxDelay += rto
			rto *= 2
		}
	}
	delay := cfg.Delay + txTime(m.Size) + retxDelay
	if cfg.Jitter > 0 {
		delay += time.Duration(p.net.rng.Float64() * float64(cfg.Jitter))
	}

	arrival := now.Add(delay)
	if arrival < p.lastRelease {
		arrival = p.lastRelease // in-order delivery: HOL blocking
	}
	p.lastRelease = arrival
	p.inflight.Push(m)
	p.net.env.PostAt(arrival, p.deliver0)
}
