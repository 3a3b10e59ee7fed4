package loadgen

import (
	"math/rand"
	"time"

	"reqlens/internal/kernel"
	"reqlens/internal/netsim"
	"reqlens/internal/sim"
	"reqlens/internal/stats"
)

// Options configures a client.
type Options struct {
	Rate    float64 // offered load, requests per second
	Conns   int     // connection pool size
	ReqSize int     // request bytes

	// PerOpCost is the client CPU burned per send and per receive
	// (request serialization, response parsing). On a co-located client
	// this couples loader pacing to server saturation.
	PerOpCost time.Duration
	// Poisson selects exponential interarrival gaps; the default is
	// uniform pacing per generator, as fixed-rate loaders do.
	Poisson bool

	// CaptureArrivals, when positive, records the virtual send time of
	// up to that many requests (in request-ID order), independent of
	// measurement windows. Arrivals returns them; determinism tests
	// compare the sequences across runs.
	CaptureArrivals int
}

// generators is the number of load-generating threads splitting
// Options.Rate. Each paces against its own schedule and catches up in a
// burst when it falls behind — the behaviour of real loader threads
// starved for CPU on a co-located, saturated machine (the paper runs
// client and server containers on one host, Section IV-A).
const generators = 4

// Client is one open-loop load generator attached to a workload.
type Client struct {
	k    *kernel.Kernel
	proc *kernel.Process
	rng  *rand.Rand
	opts Options

	conns  []*netsim.Sock
	sentAt map[uint64]sim.Time
	nextID uint64

	measuring bool
	measStart sim.Time
	completed uint64
	hist      *stats.Histogram

	arrivals []sim.Time // first CaptureArrivals send times
}

// New connects a client to the listener with opts.Conns connections and
// starts the generator and receiver threads. Traffic begins immediately.
func New(k *kernel.Kernel, l *netsim.Listener, opts Options) *Client {
	if opts.Conns <= 0 {
		opts.Conns = 8
	}
	if opts.ReqSize <= 0 {
		opts.ReqSize = 128
	}
	c := &Client{
		k:      k,
		proc:   k.NewProcess("client"),
		rng:    k.Env().NewRNG(),
		opts:   opts,
		sentAt: make(map[uint64]sim.Time),
		hist:   stats.NewHistogram(),
	}

	// Loop threads (kernel.Process.SpawnLoop): each call runs up to the
	// next blocking operation, in the order a blocking loop issues them.
	ready := 0
	for i := 0; i < opts.Conns; i++ {
		var s *netsim.Sock
		phase := 0
		c.proc.SpawnLoop("conn", func(t *kernel.Thread) bool {
			switch phase {
			case 0:
				l.Dial(t)
				phase = 1
				return false
			case 1:
				s = netsim.Dialed(t)
				c.conns = append(c.conns, s)
				ready++
			case 2: // Receiver loop: blocking recv, match by request ID.
				if c.opts.PerOpCost > 0 {
					t.Compute(c.opts.PerOpCost) // parse the response
					phase = 3
					return false
				}
				fallthrough
			case 3:
				c.onResponse(t.Now(), netsim.Received(t))
			}
			s.Recv(t, kernel.SysRecvfrom)
			phase = 2
			return false
		})
	}

	for g := 0; g < generators; g++ {
		i, phase, perGen, next := g, 0, 0.0, sim.Time(0)
		c.proc.SpawnLoop("generator", func(t *kernel.Thread) bool {
			switch phase {
			case 0:
				// Let connections establish before offering load.
				if ready < opts.Conns {
					t.Sleep(100 * time.Microsecond)
					return false
				}
				if c.opts.Rate <= 0 {
					return true
				}
				perGen = c.opts.Rate / float64(generators)
				// Stagger generator phases so fixed-rate pacing interleaves
				// instead of firing in lockstep.
				next = t.Now().Add(time.Duration(float64(g) / perGen / float64(generators) * float64(time.Second)))
				phase = 1
			case 1:
				var gap time.Duration
				if c.opts.Poisson {
					gap = time.Duration(c.rng.ExpFloat64() / perGen * float64(time.Second))
				} else {
					gap = time.Duration(float64(time.Second) / perGen)
				}
				next = next.Add(gap)
				phase = 2
				if now := t.Now(); next > now {
					t.Sleep(next.Sub(now))
				}
			case 2:
				// When behind schedule (CPU starvation on a co-located,
				// saturated host) requests fire back-to-back to catch up.
				phase = 3
				if c.opts.PerOpCost > 0 {
					t.Compute(c.opts.PerOpCost) // build the request
				}
			case 3:
				s := c.conns[i%len(c.conns)]
				c.nextID++
				id := c.nextID
				c.sentAt[id] = t.Now()
				if len(c.arrivals) < c.opts.CaptureArrivals {
					c.arrivals = append(c.arrivals, t.Now())
				}
				s.Send(t, kernel.SysSendto, &netsim.Message{ID: id, Size: c.opts.ReqSize})
				i += generators
				phase = 1
			}
			return false
		})
	}
	return c
}

func (c *Client) onResponse(now sim.Time, m *netsim.Message) {
	sent, ok := c.sentAt[m.ID]
	if !ok {
		return
	}
	delete(c.sentAt, m.ID)
	if c.measuring {
		c.completed++
		c.hist.RecordDuration(now.Sub(sent))
	}
}

// StartMeasurement clears counters and begins a measurement window.
func (c *Client) StartMeasurement() {
	c.measuring = true
	c.measStart = c.k.Env().Now()
	c.completed = 0
	c.hist.Reset()
}

// Results summarizes a measurement window: the two numbers the QoS
// verdicts read.
type Results struct {
	RealRPS float64       // responses completed per second (RPS_real)
	P99     time.Duration // client-perceived 99th-percentile latency
}

// Snapshot ends nothing; it reads the current window's results.
func (c *Client) Snapshot() Results {
	r := Results{P99: time.Duration(c.hist.Quantile(0.99))}
	if win := c.k.Env().Now().Sub(c.measStart); win > 0 {
		r.RealRPS = float64(c.completed) / win.Seconds()
	}
	return r
}

// TGID returns the client process's thread-group id. Attribution
// experiments allowlist it when computing foreign syscall share: a
// co-located load generator's syscalls are expected traffic, not a
// foreign tenant's.
func (c *Client) TGID() int { return c.proc.TGID() }

// Arrivals returns the captured send times (up to
// Options.CaptureArrivals entries, in send order). The returned slice
// is a copy.
func (c *Client) Arrivals() []sim.Time {
	out := make([]sim.Time, len(c.arrivals))
	copy(out, c.arrivals)
	return out
}
