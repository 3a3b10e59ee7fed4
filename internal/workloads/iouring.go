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
		serving, served, svc := false, false, service{spec: spec, mu: &mu}
		var pass []*netsim.Sock // this pass's connections still to drain
		var m netsim.Message    // the request in service
		w.proc.SpawnLoop(fmt.Sprintf("worker%d", i), func(t *kernel.Thread) bool {
			if serving {
				if !svc.step(t) {
					return false
				}
				pass[0].SendBypass(netsim.Message{ID: m.ID, Size: spec.RespSize})
			} else { // a new pass, over the connections as they are now
				pass, served = conns[i], false
			}
			for ; len(pass) > 0; pass = pass[1:] {
				var ok bool
				if m, ok = pass[0].TryRecvBypass(); ok {
					svc.serve(t, demand.sample())
					serving, served = true, true
					return false
				}
			}
			serving = false
			if !served {
				// Completion queue dry: a single io_uring_enter to
				// wait, then poll the CQ again. This is the only
				// syscall footprint of the fast path.
				t.Syscall(kernel.SysIoUringEnter, [6]uint64{}, dry)
			}
			return false
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
