package workloads

import (
	"fmt"

	"reqlens/internal/kernel"
	"reqlens/internal/netsim"
	"reqlens/internal/sim"
)

// dispatcher models Triton: dedicated network threads terminate client
// connections (recv requests, send responses) while a pool of inference
// workers does the heavy compute. Completions return to the owning
// network thread through an eventfd-style notification socket (write/
// read — deliberately outside the send/recv families the probes watch,
// matching how gRPC internals are invisible to the paper's filters).
type dispatcher struct{ server }

// workItem is a request in flight between network and worker threads.
type workItem struct {
	msg  *netsim.Message
	sock *netsim.Sock
	net  *netThread
}

// netThread owns a share of the client connections.
type netThread struct {
	ep          *netsim.Epoll
	notifyRead  *netsim.Sock // registered in ep; readable when work completes
	notifyWrite *netsim.Sock // workers write here
	completions []*workItem
}

func launchDispatcher(k *kernel.Kernel, n *netsim.Network, spec Spec, linkCfg netsim.Config) Server {
	w := &dispatcher{newServer(k, n, spec, spec.Name, linkCfg)}
	demand := newDemandSampler(k.Env().NewRNG(), spec.ServiceMean, spec.ServiceCV)
	var mu kernel.Mutex

	nNet := spec.NetThreads
	if nNet <= 0 {
		nNet = 2
	}

	// Shared work queue between network threads and workers.
	var queue []*workItem
	var idleWorkers []*sim.Waker

	pushWork := func(it *workItem) {
		queue = append(queue, it)
		for _, wk := range idleWorkers {
			wk.Wake()
		}
		idleWorkers = idleWorkers[:0]
	}
	// idle is a worker's wait for work: on the idle list until pushWork
	// wakes it with the queue non-empty.
	idle := func(t *kernel.Thread) (int64, bool) {
		if len(queue) > 0 {
			return 0, true
		}
		idleWorkers = append(idleWorkers, t.Waker())
		return 0, false
	}

	nets := make([]*netThread, nNet)
	for i := range nets {
		a, b := n.NewConn(netsim.Config{}) // in-process eventfd pair
		nets[i] = &netThread{ep: n.NewEpoll(), notifyRead: b, notifyWrite: a}
	}

	for i, nt := range nets {
		nt := nt
		nt.ep.Add(nil, nt.notifyRead)
		w.proc.SpawnThread(fmt.Sprintf("net%d", i), func(t *kernel.Thread) {
			for {
				ready := nt.ep.Wait(t, spec.PollNR, 0)
				for _, s := range ready {
					if s == nt.notifyRead {
						// Drain notifications, then send completed
						// responses from this network thread.
						for {
							if _, ret := s.TryRecv(t, kernel.SysRead); ret == netsim.EAGAIN {
								break
							}
						}
						pending := nt.completions
						nt.completions = nil
						for _, it := range pending {
							it.sock.Send(t, spec.SendNR, &netsim.Message{
								ID: it.msg.ID, Size: spec.RespSize, Payload: it.msg.Payload,
							})
						}
						continue
					}
					for {
						m, ret := s.TryRecv(t, spec.RecvNR)
						if ret == netsim.EAGAIN {
							break
						}
						pushWork(&workItem{msg: m, sock: s, net: nt})
					}
				}
			}
		})
	}

	for i := 0; i < spec.Workers; i++ {
		w.proc.SpawnThread(fmt.Sprintf("infer%d", i), func(t *kernel.Thread) {
			sinceSweep := 0
			for {
				t.Wait(idle)
				it := queue[0]
				queue = queue[1:]
				sinceSweep++
				if spec.MaintenanceEvery > 0 && sinceSweep >= spec.MaintenanceEvery {
					sinceSweep = 0
					maintain(t, spec, len(queue), &mu)
				}
				serveOne(t, spec, demand.sample(), &mu)
				it.net.completions = append(it.net.completions, it)
				// eventfd-style wakeup of the owning network thread.
				it.net.notifyWrite.Send(t, kernel.SysWrite, &netsim.Message{Size: 8})
			}
		})
	}

	w.proc.SpawnThread("main", func(t *kernel.Thread) {
		emitSetup(t)
		for i := 0; ; i++ {
			s := w.listener.Accept(t)
			nets[i%len(nets)].ep.Add(t, s)
		}
	})
	return w
}
