package workloads

import (
	"fmt"
	"time"

	"reqlens/internal/kernel"
	"reqlens/internal/netsim"
)

// emitSetup issues the listening-socket setup sequence every server
// performs before its request loop — the Fig. 1(b) setup-phase syscalls.
func emitSetup(t *kernel.Thread) {
	for _, nr := range []int{
		kernel.SysOpenat, kernel.SysMmap, kernel.SysMmap,
		kernel.SysSocket, kernel.SysBind, kernel.SysListen,
	} {
		t.Invoke(nr, [6]uint64{}, func() int64 { return 0 })
	}
}

// Launch starts a workload server on k, listening on a connection link
// shaped by linkCfg. It spawns the model-appropriate thread structure
// and an acceptor that registers incoming connections.
func Launch(k *kernel.Kernel, n *netsim.Network, spec Spec, linkCfg netsim.Config) Server {
	switch spec.Model {
	case ModelWorkerPool:
		return launchWorkerPool(k, n, spec, linkCfg)
	case ModelTwoStage:
		return launchTwoStage(k, n, spec, linkCfg)
	case ModelDispatcher:
		return launchDispatcher(k, n, spec, linkCfg)
	case ModelIOUring:
		return launchIOUring(k, n, spec, linkCfg)
	}
	panic(fmt.Sprintf("workloads: unknown model %v", spec.Model))
}

// workerPool is the tailbench/data-caching shape: each worker thread owns
// an epoll (or select set) over a share of the connections and runs
// poll -> drain(recv -> compute -> send).
type workerPool struct {
	server
	epolls []*netsim.Epoll
}

func launchWorkerPool(k *kernel.Kernel, n *netsim.Network, spec Spec, linkCfg netsim.Config) Server {
	w := &workerPool{server: newServer(k, n, spec, spec.Name, linkCfg)}
	demand := newDemandSampler(k.Env().NewRNG(), spec.ServiceMean, spec.ServiceCV)
	var mu kernel.Mutex // shared queue/LRU maintenance lock

	for i := 0; i < spec.Workers; i++ {
		w.epolls = append(w.epolls, n.NewEpoll())
	}

	// Main thread: listening-socket setup, then worker spawn, then the
	// accept loop distributing connections round-robin over workers. The
	// setup and accept/epoll_ctl churn is Fig. 1's "setup phase".
	w.proc.SpawnThread("main", func(t *kernel.Thread) {
		emitSetup(t)
		for i := 0; i < spec.Workers; i++ {
			w.proc.SpawnLoop(fmt.Sprintf("worker%d", i), drain(spec, w.epolls[i], demand, &mu))
		}
		for i := 0; ; i++ {
			s := w.listener.Accept(t)
			w.epolls[i%len(w.epolls)].Add(t, s)
		}
	})
	return w
}

// Where a request-path loop thread's body goes on at its next call: the
// zero value issues its first blocking call.
const (
	polled      = iota + 1 // epoll_wait returned
	recvd                  // a non-blocking recv returned
	serving                // a request's service is under way
	sent                   // a response was sent
	maintaining            // a maintenance pass is under way
	dialed                 // the connection to the index is up
	forwarded              // a request was forwarded to the index
	answered               // the index answered
)

// drain is the loop body (kernel.Process.SpawnLoop) worker-pool workers
// and two-stage index threads share: epoll_wait, then empty each ready
// socket in turn. For each queued request it samples CPU demand, serves
// it (the tail inside mu's critical section), sends the response and,
// every MaintenanceEvery requests, runs a maintenance pass — the
// single-thread request cycle of Section III. Each call reads the result
// of the call before and issues the next blocking call, as its last act.
func drain(spec Spec, ep *netsim.Epoll, demand *demandSampler, mu *kernel.Mutex) func(*kernel.Thread) bool {
	at, svc := 0, service{spec: spec, mu: mu}
	var ready []*netsim.Sock // the last epoll_wait's sockets still to drain
	var m netsim.Message     // the request in service
	return func(t *kernel.Thread) bool {
		switch at {
		case polled:
			ready = netsim.Ready(t)
		case recvd:
			var ok bool
			if m, ok = netsim.Received(t); !ok { // EAGAIN: this socket is empty
				ready = ready[1:]
				break
			}
			svc.serve(t, demand.sample())
			at = serving
			return false
		case serving:
			if !svc.step(t) {
				return false
			}
			ready[0].Send(t, spec.SendNR, netsim.Message{ID: m.ID, Size: spec.RespSize})
			at = sent
			return false
		case sent:
			if svc.due() {
				svc.maintain(ep.TotalQueued())
			}
			at = maintaining
			fallthrough
		case maintaining:
			if !svc.step(t) {
				return false
			}
		}
		if len(ready) == 0 {
			ep.Wait(t, spec.PollNR, 0)
			at = polled
		} else {
			ready[0].TryRecv(t, spec.RecvNR)
			at = recvd
		}
		return false
	}
}

// service is a request-path thread's step form of serving a request and
// of queue maintenance: a compute, then CPU inside the shared critical
// section. serve or maintain starts it; then each call of step issues at
// most one blocking call, as its last act, and step reports true, having
// issued none, once the section is left.
type service struct {
	spec   Spec
	mu     *kernel.Mutex
	held   time.Duration // CPU still to run inside the lock
	locked bool          // the held CPU is issued: unlock next
	since  int           // requests since the last maintenance pass
}

// serve starts one request's CPU demand d, the tail of it to finish
// inside the critical section (response bookkeeping: LRU/queue/index
// maintenance), by issuing the rest. Under CPU saturation the
// lock-holder gets preempted with waiters parked behind it — the
// contention convoys behind the paper's variance signal.
func (c *service) serve(t *kernel.Thread, d time.Duration) {
	c.held = min(time.Duration(float64(d)*c.spec.LockShare), maxLockedSection)
	t.Compute(d - c.held)
}

// due counts a request and reports whether a maintenance pass is due.
func (c *service) due() bool {
	if c.spec.MaintenanceEvery <= 0 {
		return false
	}
	if c.since++; c.since < c.spec.MaintenanceEvery {
		return false
	}
	c.since = 0
	return true
}

// maintain starts queue-management housekeeping (LRU walks, allocator or
// GC work) whose cost scales with the pending backlog, all of it under
// the shared lock; it issues nothing. Below saturation backlogs are tiny
// and this is free; past saturation it becomes the global stall source
// the paper blames for the variance rise ("accumulation of pending
// requests ... overloading the application's queue management system").
func (c *service) maintain(backlog int) {
	c.held = min(time.Duration(backlog)*c.spec.MaintenancePerItem, c.spec.MaintenanceCap)
}

// step takes the lock, runs the held CPU and unlocks, one blocking call
// per call; with nothing held it is done at once.
func (c *service) step(t *kernel.Thread) bool {
	switch {
	case c.locked:
		c.mu.Unlock(t)
		c.locked = false
		return true
	case c.held <= 0:
		return true
	case !c.mu.Acquire(t, lockSpin):
		return false
	}
	t.Compute(c.held)
	c.held, c.locked = 0, true
	return false
}

// Critical sections in real servers are short regardless of request
// size; the cap keeps lock-holder preemption rare-but-present, and the
// adaptive spin matches glibc's contended fast path.
const (
	maxLockedSection = 5 * time.Microsecond
	lockSpin         = 10 * time.Microsecond
)
