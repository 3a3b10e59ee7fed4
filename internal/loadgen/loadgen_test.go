package loadgen

import (
	"math"
	"runtime"
	"testing"
	"time"

	"reqlens/internal/kernel"
	"reqlens/internal/machine"
	"reqlens/internal/netsim"
	"reqlens/internal/sim"
)

// echoServer accepts connections and echoes each request after delay.
func echoServer(k *kernel.Kernel, n *netsim.Network, delay time.Duration, cfg netsim.Config) *netsim.Listener {
	l := n.Listen(cfg)
	proc := k.NewProcess("echo")
	proc.SpawnThread("acceptor", func(t *kernel.Thread) {
		for {
			s := l.Accept(t)
			proc.SpawnThread("conn", func(t *kernel.Thread) {
				for {
					m := s.Recv(t, kernel.SysRead)
					if delay > 0 {
						t.Compute(delay)
					}
					s.Send(t, kernel.SysWrite, netsim.Message{ID: m.ID, Size: 64})
				}
			})
		}
	})
	return l
}

func rig() (*sim.Env, *kernel.Kernel, *netsim.Network) {
	env := sim.NewEnv(19)
	prof := machine.Profile{
		Name: "t", Sockets: 1, CoresPerSock: 8, ThreadsPerCore: 1,
		TimeSlice: time.Millisecond,
	}
	return env, kernel.New(env, prof), netsim.New(env)
}

func TestOpenLoopRateAchieved(t *testing.T) {
	env, k, n := rig()
	l := echoServer(k, n, 10*time.Microsecond, netsim.Config{})
	c := New(k, l, Options{Rate: 2000, Conns: 8})
	env.RunFor(200 * time.Millisecond)
	c.StartMeasurement()
	sent := c.nextID
	env.RunFor(time.Second)
	r := c.Snapshot()
	// The window is one second: requests issued in it are its send rate.
	if win := env.Now().Sub(c.measStart); win < 990*time.Millisecond {
		t.Fatalf("window = %v", win)
	}
	if sentRPS := float64(c.nextID - sent); math.Abs(sentRPS-2000) > 100 {
		t.Fatalf("sent %v requests/s, want ~2000", sentRPS)
	}
	if math.Abs(r.RealRPS-2000) > 100 {
		t.Fatalf("RealRPS = %v, want ~2000", r.RealRPS)
	}
	if c.completed < 1800 {
		t.Fatalf("completed = %d", c.completed)
	}
}

func TestLatencyIncludesNetworkDelay(t *testing.T) {
	env, k, n := rig()
	l := echoServer(k, n, 0, netsim.Config{Delay: 5 * time.Millisecond})
	c := New(k, l, Options{Rate: 200, Conns: 4})
	env.RunFor(100 * time.Millisecond)
	c.StartMeasurement()
	env.RunFor(500 * time.Millisecond)
	r, p50 := c.Snapshot(), time.Duration(c.hist.Quantile(0.50))
	// RTT = 2 x 5ms plus processing.
	if p50 < 10*time.Millisecond || p50 > 12*time.Millisecond {
		t.Fatalf("p50 = %v, want ~10ms RTT", p50)
	}
	if r.P99 < p50 || time.Duration(c.hist.Max()) < r.P99 || c.hist.Mean() <= 0 {
		t.Fatalf("inconsistent percentiles: p50 %v, %+v, max %v, mean %v", p50, r, c.hist.Max(), c.hist.Mean())
	}
}

func TestLossInflatesTailOnly(t *testing.T) {
	run := func(loss float64) (Results, time.Duration) {
		env, k, n := rig()
		l := echoServer(k, n, 0, netsim.Config{Delay: time.Millisecond, Loss: loss, RTO: 50 * time.Millisecond})
		c := New(k, l, Options{Rate: 500, Conns: 16})
		env.RunFor(100 * time.Millisecond)
		c.StartMeasurement()
		env.RunFor(2 * time.Second)
		r, p50 := c.Snapshot(), time.Duration(c.hist.Quantile(0.50))
		env.Shutdown()
		return r, p50
	}
	clean, cleanP50 := run(0)
	lossy, lossyP50 := run(0.01)
	if lossy.P99 < 4*clean.P99 {
		t.Fatalf("1%% loss should inflate p99: clean=%v lossy=%v", clean.P99, lossy.P99)
	}
	// Median barely moves, throughput preserved.
	if lossyP50 > 3*cleanP50 {
		t.Fatalf("p50 moved too much under loss: clean=%v lossy=%v", cleanP50, lossyP50)
	}
	if math.Abs(lossy.RealRPS-clean.RealRPS) > 0.1*clean.RealRPS {
		t.Fatalf("loss should not change throughput: clean=%v lossy=%v", clean.RealRPS, lossy.RealRPS)
	}
}

func TestPoissonVsUniformPacing(t *testing.T) {
	gaps := func(poisson bool) float64 {
		env, k, n := rig()
		l := n.Listen(netsim.Config{})
		// Sink server: accept and swallow requests, recording arrivals.
		var arrivals []sim.Time
		proc := k.NewProcess("sink")
		proc.SpawnThread("acceptor", func(t *kernel.Thread) {
			for {
				s := l.Accept(t)
				proc.SpawnThread("conn", func(t *kernel.Thread) {
					for {
						s.Recv(t, kernel.SysRead)
						arrivals = append(arrivals, t.Now())
					}
				})
			}
		})
		New(k, l, Options{Rate: 1000, Conns: 4, Poisson: poisson})
		env.RunFor(2 * time.Second)
		env.Shutdown()
		// Coefficient of variation of interarrival gaps.
		var sum, sumSq float64
		var prev sim.Time = -1
		cnt := 0.0
		for _, a := range arrivals {
			if prev >= 0 {
				d := float64(a - prev)
				sum += d
				sumSq += d * d
				cnt++
			}
			prev = a
		}
		mean := sum / cnt
		return (sumSq/cnt - mean*mean) / (mean * mean)
	}
	uniformCV2 := gaps(false)
	poissonCV2 := gaps(true)
	if poissonCV2 < 0.5 {
		t.Fatalf("poisson CV^2 = %v, want ~1", poissonCV2)
	}
	if uniformCV2 > poissonCV2/2 {
		t.Fatalf("uniform pacing CV^2 = %v should be well below poisson %v", uniformCV2, poissonCV2)
	}
}

func TestPerOpCostConsumesClientCPU(t *testing.T) {
	env, k, n := rig()
	l := echoServer(k, n, 0, netsim.Config{})
	c := New(k, l, Options{Rate: 1000, Conns: 4, PerOpCost: 100 * time.Microsecond})
	env.RunFor(time.Second)
	var clientCPU time.Duration
	for _, th := range c.proc.Threads() {
		clientCPU += th.CPUTime()
	}
	env.Shutdown()
	// ~1000 req/s x (send+recv) x 100us = 0.2 CPU-seconds/second.
	if clientCPU < 100*time.Millisecond {
		t.Fatalf("client CPU = %v, expected substantial per-op cost", clientCPU)
	}
}

func TestOutstandingAndLifetime(t *testing.T) {
	env, k, n := rig()
	l := echoServer(k, n, 100*time.Microsecond, netsim.Config{})
	c := New(k, l, Options{Rate: 1000, Conns: 4})
	c.StartMeasurement()
	env.RunFor(500 * time.Millisecond)
	if c.Snapshot().RealRPS == 0 {
		t.Fatal("no responses received")
	}
	if len(c.sentAt) > 50 {
		t.Fatalf("outstanding = %d at low load", len(c.sentAt))
	}
}

func TestZeroRateClientIdles(t *testing.T) {
	env, k, n := rig()
	l := echoServer(k, n, 0, netsim.Config{})
	c := New(k, l, Options{Rate: 0, Conns: 2})
	env.RunFor(100 * time.Millisecond)
	if c.nextID != 0 {
		t.Fatal("zero-rate client sent requests")
	}
}

// TestClientSpawnsNoGoroutines: the client's receiver and generator
// threads are loop threads, so a client with the default 4 generators
// and 64 connections adds no goroutine; the only ones the run adds are
// the echo server's 64 per-connection coroutine threads.
func TestClientSpawnsNoGoroutines(t *testing.T) {
	env, k, n := rig()
	l := echoServer(k, n, 10*time.Microsecond, netsim.Config{})
	env.RunFor(time.Millisecond)
	base := runtime.NumGoroutine()
	c := New(k, l, Options{Rate: 20000, Conns: 64})
	c.StartMeasurement()
	env.RunFor(100 * time.Millisecond)
	got := runtime.NumGoroutine()
	env.Shutdown()
	if c.completed < 1000 {
		t.Fatalf("%d responses in 100ms at 20k RPS", c.completed)
	}
	if got > base+64 {
		t.Fatalf("%d goroutines after the run, %d before it plus the server's 64: the client holds %d",
			got, base, got-base-64)
	}
}
