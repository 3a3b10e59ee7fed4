package workloads

import (
	"fmt"
	"time"

	"reqlens/internal/kernel"
	"reqlens/internal/netsim"
	"reqlens/internal/sim"
)

// twoStage models CloudSuite Web Search: a front-end process terminating
// client connections and an index-search process doing the heavy work,
// joined by internal connections. Both hops use read/write, so the
// send-family syscall trace of the front-end mixes client responses with
// internal forwards — the structural reason the paper measures its
// weakest RPS correlation (R^2 = 0.86) on this workload.
type twoStage struct {
	server // its process is the front end
	back   *kernel.Process
}

func launchTwoStage(k *kernel.Kernel, n *netsim.Network, spec Spec, linkCfg netsim.Config) Server {
	w := &twoStage{server: newServer(k, n, spec, spec.Name+"-front", linkCfg)}
	w.back = k.NewProcess(spec.Name + "-index")
	frontShare := spec.FrontShare
	if frontShare <= 0 {
		frontShare = 0.1
	}
	frontDemand := newDemandSampler(k.Env().NewRNG(),
		time.Duration(float64(spec.ServiceMean)*frontShare), spec.ServiceCV)
	backDemand := newDemandSampler(k.Env().NewRNG(),
		time.Duration(float64(spec.ServiceMean)*(1-frontShare)), spec.ServiceCV)

	// Internal hop: in-machine connections, no netem shaping.
	internal := n.Listen(netsim.Config{})

	// Backend index workers: epoll over the internal connections.
	var backMu kernel.Mutex
	backEp := n.NewEpoll()
	for i := 0; i < spec.Workers; i++ {
		w.back.SpawnLoop(fmt.Sprintf("index%d", i), drain(spec, backEp, backDemand, &backMu))
	}
	w.back.SpawnThread("main", func(t *kernel.Thread) {
		emitSetup(t)
		for {
			s := internal.Accept(t)
			backEp.Add(t, s)
		}
	})

	// Front-end threads: each owns client connections and a dedicated
	// internal connection; requests are forwarded and the thread waits
	// for the index response before replying to the client.
	//
	// Responses go out in a variable number of write chunks: result-set
	// size drifts with the query mix, so the chunk count is a slowly
	// varying process (re-rolled every 50-200ms), not i.i.d. noise. This
	// drift is what decouples the front-end's write rate from the true
	// request rate and produces the paper's weakest Fig. 2 fit
	// (R^2 = 0.86) for this workload.
	var frontMu kernel.Mutex
	chunkRng := k.Env().NewRNG()
	chunkState := 0
	chunkFlip := sim.Time(0)
	chunksNow := func(now sim.Time) int {
		if now >= chunkFlip {
			chunkState = chunkRng.Intn(3)
			chunkFlip = now.Add(50*time.Millisecond +
				time.Duration(chunkRng.Int63n(int64(150*time.Millisecond))))
		}
		return 1 + chunkState
	}
	frontEps := make([]*netsim.Epoll, spec.Workers)
	for i := 0; i < spec.Workers; i++ {
		ep := n.NewEpoll()
		frontEps[i] = ep
		w.proc.SpawnLoop(fmt.Sprintf("front%d", i), front(spec, ep, internal, frontDemand, &frontMu, chunksNow))
	}
	w.proc.SpawnThread("main", func(t *kernel.Thread) {
		emitSetup(t)
		for i := 0; ; i++ {
			s := w.listener.Accept(t)
			frontEps[i%len(frontEps)].Add(t, s)
		}
	})
	return w
}

// front is a front-end thread's body (kernel.Process.SpawnLoop): dial the
// index, then epoll_wait and drain each ready client socket. Each request
// counts toward maintenance, runs its front-end share of demand, is
// forwarded to the index (the same send syscall family as client
// responses), and once the index answers is sent back in chunksNow
// chunks. Each call reads the result of the call before and issues the
// next blocking call, as its last act.
func front(spec Spec, ep *netsim.Epoll, internal *netsim.Listener, demand *demandSampler, mu *kernel.Mutex, chunksNow func(sim.Time) int) func(*kernel.Thread) bool {
	at, svc := 0, service{spec: spec, mu: mu}
	var backConn *netsim.Sock
	var ready []*netsim.Sock // the last epoll_wait's sockets still to drain
	var m netsim.Message     // the request in service, then the index's answer
	chunk, chunks := 0, 0    // response chunks sent, and to send
	return func(t *kernel.Thread) bool {
		switch at {
		case 0:
			internal.Dial(t)
			at = dialed
			return false
		case dialed:
			backConn = netsim.Dialed(t)
		case polled:
			ready = netsim.Ready(t)
		case recvd:
			var ok bool
			if m, ok = netsim.Received(t); !ok { // EAGAIN: this socket is empty
				ready = ready[1:]
				break
			}
			if svc.due() {
				svc.maintain(ep.TotalQueued())
			}
			at = maintaining
			fallthrough
		case maintaining:
			if !svc.step(t) {
				return false
			}
			t.Compute(demand.sample())
			at = serving
			return false
		case serving:
			backConn.Send(t, spec.SendNR, netsim.Message{ID: m.ID, Size: spec.ReqSize})
			at = forwarded
			return false
		case forwarded:
			backConn.Recv(t, spec.RecvNR)
			at = answered
			return false
		case answered:
			m, _ = netsim.Received(t)
			chunk, chunks = 0, chunksNow(t.Now())
			fallthrough
		case sent:
			if chunk < chunks {
				id := uint64(0) // continuation chunks carry no request id
				if chunk++; chunk == chunks {
					id = m.ID // final chunk completes the response
				}
				ready[0].Send(t, spec.SendNR, netsim.Message{ID: id, Size: spec.RespSize / chunks})
				at = sent
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
