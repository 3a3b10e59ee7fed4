// Package netsim simulates the network substrate between clients and
// servers: message-oriented connections with tc-netem-style delay,
// jitter and loss, TCP-like in-order delivery with RTO-based
// retransmission, listeners with accept queues, and epoll/select
// readiness — everything the paper's Section V network-robustness
// experiments manipulate.
//
// The crucial property reproduced here is the asymmetry the paper
// reports in Fig. 5: a lost packet delays the *client's* perception of
// the response by one or more RTOs (and everything behind it, by
// head-of-line blocking), while the *server's* syscall cadence is
// untouched — the send syscall already happened. That is why Eq. 1 and
// the Fig. 3/4 signals survive netem (Table II) yet cannot replace
// failure detection (Section V-A).
//
// Key entry points:
//
//   - New(env) — build a Network on a sim.Env; Network.Listen creates a
//     Listener over a Config-shaped link, Listener.Dial/Accept connect
//     Sock pairs, Network.NewEpoll builds a readiness multiplexer.
//   - Config — netem knobs: Delay, Jitter, Loss, and RTO (shrinking RTO
//     to fast-retransmit scale is the datagram ablation). The link rate
//     is a fixed 10 Gbit/s. RTO stays a knob because the root
//     BenchmarkAblationDatagramNetwork sets it (DESIGN.md's and
//     EXPERIMENTS.md's ablation rows); Jitter stays because
//     TestNetScheduleDigest's scenario sets it.
//   - Sock.Send / TryRecv / Recv — message I/O issued through a
//     kernel.Thread so every operation appears as a syscall to the
//     tracepoints. A syscall body never parks: each blocking call is a
//     kernel.Step reading its operands from the thread's frame.
//   - Epoll — readiness multiplexing; epoll wait durations are the raw
//     material of the Fig. 4 slack signal. EAGAIN mirrors the kernel's
//     would-block return.
//
// internal/workloads wires servers to listeners; internal/loadgen
// drives the client side.
package netsim
