package workloads

import (
	"fmt"
	"time"

	"reqlens/internal/kernel"
	"reqlens/internal/netsim"
)

// ioUringServer is the Section V-C limitation case: the same event-loop
// cache server, but request receive and response send ride an io_uring-
// style submission/completion queue. The only syscall left is an
// occasional io_uring_enter when the completion queue runs dry — so the
// paper's recv/send/poll probes observe (almost) nothing, and
// syscall-derived metrics go blind.
type ioUringServer struct{ server }

func launchIOUring(k *kernel.Kernel, n *netsim.Network, spec Spec, linkCfg netsim.Config) Server {
	w := &ioUringServer{newServer(k, n, spec, spec.Name, linkCfg)}
	demand := newDemandSampler(k.Env().NewRNG(), spec.ServiceMean, spec.ServiceCV)
	var mu kernel.Mutex

	var conns [][]*netsim.Sock // per-worker connection sets
	conns = make([][]*netsim.Sock, spec.Workers)
	dry := kernel.Sleeping(200*time.Microsecond, 0)

	for i := 0; i < spec.Workers; i++ {
		i := i
		w.proc.SpawnThread(fmt.Sprintf("worker%d", i), func(t *kernel.Thread) {
			for {
				served := 0
				for _, s := range conns[i] {
					for {
						m := s.TryRecvBypass()
						if m == nil {
							break
						}
						served++
						serveOne(t, spec, demand.sample(), &mu)
						s.SendBypass(&netsim.Message{ID: m.ID, Size: spec.RespSize, Payload: m.Payload})
					}
				}
				if served == 0 {
					// Completion queue dry: a single io_uring_enter to
					// wait, then poll the CQ again. This is the only
					// syscall footprint of the fast path.
					t.Syscall(kernel.SysIoUringEnter, [6]uint64{}, dry)
				}
			}
		})
	}

	w.proc.SpawnThread("main", func(t *kernel.Thread) {
		emitSetup(t)
		for i := 0; ; i++ {
			s := w.listener.Accept(t)
			conns[i%spec.Workers] = append(conns[i%spec.Workers], s)
		}
	})
	return w
}
