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
			ep := w.epolls[i]
			w.proc.SpawnThread(fmt.Sprintf("worker%d", i), func(t *kernel.Thread) {
				sinceSweep := 0
				for {
					ready := ep.Wait(t, spec.PollNR, 0)
					for _, s := range ready {
						drainAndServe(t, s, spec, demand, &mu, ep, &sinceSweep)
					}
				}
			})
		}
		for i := 0; ; i++ {
			s := w.listener.Accept(t)
			w.epolls[i%len(w.epolls)].Add(t, s)
		}
	})
	return w
}

// drainAndServe empties one readable socket: for each queued request,
// sample CPU demand, compute (the tail of it inside the shared critical
// section), and send the response — the single-thread request cycle of
// Section III.
func drainAndServe(t *kernel.Thread, s *netsim.Sock, spec Spec, demand *demandSampler, mu *kernel.Mutex, ep *netsim.Epoll, sinceSweep *int) int {
	served := 0
	for {
		m, ret := s.TryRecv(t, spec.RecvNR)
		if ret == netsim.EAGAIN {
			return served
		}
		served++
		serveOne(t, spec, demand.sample(), mu)
		s.Send(t, spec.SendNR, &netsim.Message{ID: m.ID, Size: spec.RespSize, Payload: m.Payload})
		if spec.MaintenanceEvery > 0 {
			*sinceSweep++
			if *sinceSweep >= spec.MaintenanceEvery {
				*sinceSweep = 0
				maintain(t, spec, ep.TotalQueued(), mu)
			}
		}
	}
}

// maintain models queue-management housekeeping (LRU walks, allocator or
// GC work) whose cost scales with the pending backlog, executed under
// the shared lock. Below saturation backlogs are tiny and this is free;
// past saturation it becomes the global stall source the paper blames
// for the variance rise ("accumulation of pending requests ...
// overloading the application's queue management system").
func maintain(t *kernel.Thread, spec Spec, backlog int, mu *kernel.Mutex) {
	cost := time.Duration(backlog) * spec.MaintenancePerItem
	if cost > spec.MaintenanceCap {
		cost = spec.MaintenanceCap
	}
	if cost <= 0 {
		return
	}
	mu.LockSpin(t, lockSpin)
	t.Compute(cost)
	mu.Unlock(t)
}

// serveOne burns one request's CPU demand, finishing inside the shared
// critical section (response bookkeeping: LRU/queue/index maintenance).
// Under CPU saturation the lock-holder gets preempted with waiters
// parked behind it — the contention convoys behind the paper's variance
// signal.
func serveOne(t *kernel.Thread, spec Spec, d time.Duration, mu *kernel.Mutex) {
	locked := time.Duration(float64(d) * spec.LockShare)
	if locked > maxLockedSection {
		locked = maxLockedSection
	}
	t.Compute(d - locked)
	if locked > 0 && mu != nil {
		mu.LockSpin(t, lockSpin)
		t.Compute(locked)
		mu.Unlock(t)
	}
}

// Critical sections in real servers are short regardless of request
// size; the cap keeps lock-holder preemption rare-but-present, and the
// adaptive spin matches glibc's contended fast path.
const (
	maxLockedSection = 5 * time.Microsecond
	lockSpin         = 10 * time.Microsecond
)
