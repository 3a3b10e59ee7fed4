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
		w.back.SpawnThread(fmt.Sprintf("index%d", i), func(t *kernel.Thread) {
			sinceSweep := 0
			for {
				ready := backEp.Wait(t, spec.PollNR, 0)
				for _, s := range ready {
					drainAndServe(t, s, spec, backDemand, &backMu, backEp, &sinceSweep)
				}
			}
		})
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
		w.proc.SpawnThread(fmt.Sprintf("front%d", i), func(t *kernel.Thread) {
			backConn := internal.Dial(t)
			sinceSweep := 0
			for {
				ready := ep.Wait(t, spec.PollNR, 0)
				for _, s := range ready {
					for {
						m, ret := s.TryRecv(t, spec.RecvNR)
						if ret == netsim.EAGAIN {
							break
						}
						if spec.MaintenanceEvery > 0 {
							sinceSweep++
							if sinceSweep >= spec.MaintenanceEvery {
								sinceSweep = 0
								maintain(t, spec, ep.TotalQueued(), &frontMu)
							}
						}
						t.Compute(frontDemand.sample())
						// Forward to the index over the internal hop
						// (same send syscall family as client responses).
						backConn.Send(t, spec.SendNR, &netsim.Message{ID: m.ID, Size: spec.ReqSize, Payload: m.Payload})
						resp := backConn.Recv(t, spec.RecvNR)
						chunks := chunksNow(t.Now())
						for c := 0; c < chunks; c++ {
							id := uint64(0) // continuation chunks carry no request id
							if c == chunks-1 {
								id = resp.ID // final chunk completes the response
							}
							s.Send(t, spec.SendNR, &netsim.Message{ID: id, Size: spec.RespSize / chunks, Payload: resp.Payload})
						}
					}
				}
			}
		})
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
