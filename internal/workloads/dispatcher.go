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
	msg  netsim.Message
	sock *netsim.Sock
	net  *netThread
}

// netThread owns a share of the client connections.
type netThread struct {
	ep          *netsim.Epoll
	notifyRead  *netsim.Sock // registered in ep; readable when work completes
	notifyWrite *netsim.Sock // workers write here
	completions []workItem   // finished work its network thread has not yet taken
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
	var queue sim.FIFO[workItem]
	var idleWorkers []*sim.Waker

	pushWork := func(it workItem) {
		queue.Push(it)
		for _, wk := range idleWorkers {
			wk.Wake()
		}
		idleWorkers = idleWorkers[:0]
	}
	// idle is a worker's wait for work: on the idle list until pushWork
	// wakes it with the queue non-empty.
	idle := func(t *kernel.Thread) (int64, bool) {
		if queue.Len() > 0 {
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
		nt.ep.Add(nil, nt.notifyRead)
		w.proc.SpawnLoop(fmt.Sprintf("net%d", i), nt.loop(spec, pushWork))
	}

	for i := 0; i < spec.Workers; i++ {
		at, svc := 0, service{spec: spec, mu: &mu}
		var it workItem
		w.proc.SpawnLoop(fmt.Sprintf("infer%d", i), func(t *kernel.Thread) bool {
			switch at {
			case recvd: // work is queued
				it = queue.Pop()
				if svc.due() {
					svc.maintain(queue.Len())
				}
				at = maintaining
				fallthrough
			case maintaining:
				if !svc.step(t) {
					return false
				}
				svc.serve(t, demand.sample())
				at = serving
				return false
			case serving:
				if !svc.step(t) {
					return false
				}
				it.net.completions = append(it.net.completions, it)
				// eventfd-style wakeup of the owning network thread.
				it.net.notifyWrite.Send(t, kernel.SysWrite, netsim.Message{Size: 8})
				at = sent
				return false
			}
			t.Wait(idle)
			at = recvd
			return false
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

// loop is a network thread's body (kernel.Process.SpawnLoop): epoll_wait,
// then drain each ready socket. A client connection's requests go to
// pushWork; a drained notification socket means completed work, whose
// responses this thread then sends. Each call reads the result of the
// call before and issues the next blocking call, as its last act.
func (nt *netThread) loop(spec Spec, pushWork func(workItem)) func(*kernel.Thread) bool {
	var ready []*netsim.Sock // the last epoll_wait's sockets still to drain
	var pending []workItem   // completions whose responses are still to send
	sentN := 0               // of pending, the responses sent
	at := 0
	return func(t *kernel.Thread) bool {
		switch at {
		case polled:
			ready = netsim.Ready(t)
		case recvd:
			s := ready[0]
			if m, ok := netsim.Received(t); ok {
				if s != nt.notifyRead {
					pushWork(workItem{msg: m, sock: s, net: nt})
				}
				break
			}
			ready = ready[1:]
			if s == nt.notifyRead { // the two slices trade places, so neither is reallocated
				pending, nt.completions, sentN = nt.completions, pending[:0], 0
			}
		}
		switch {
		case sentN < len(pending):
			it := &pending[sentN]
			sentN++
			it.sock.Send(t, spec.SendNR, netsim.Message{ID: it.msg.ID, Size: spec.RespSize})
			at = sent
		case len(ready) == 0:
			nt.ep.Wait(t, spec.PollNR, 0)
			at = polled
		case ready[0] == nt.notifyRead:
			ready[0].TryRecv(t, kernel.SysRead)
			at = recvd
		default:
			ready[0].TryRecv(t, spec.RecvNR)
			at = recvd
		}
		return false
	}
}
