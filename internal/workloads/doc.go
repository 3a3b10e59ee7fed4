// Package workloads models the paper's nine latency-sensitive
// applications (Section IV-A): five tailbench benchmarks, CloudSuite
// Data Caching and Web Search, and the Triton inference server under
// HTTP and gRPC. Each model reproduces the threading structure and the
// request-oriented syscall signature the paper reports:
//
//	tailbench     recvfrom/sendto, select        worker pool
//	data caching  read/sendmsg, epoll_wait       event-loop threads
//	web search    read/write, epoll_wait         two processes (front/index)
//	triton http   recvfrom/sendto, epoll_wait    dispatcher + workers
//	triton grpc   recvmsg/sendmsg, epoll_wait    dispatcher + workers
//
// Service-time distributions are lognormal, calibrated so each workload
// saturates near the failure RPS the paper reports for the AMD server
// (Section IV-A): img-dnn 1950, xapian 970, silo 2100, specjbb 3700,
// moses 900, data caching 62000, web search 420, triton 21. Shared-lock
// contention and backlog-proportional queue maintenance supply the
// Fig. 3 variance mechanism; DataCachingIOUring is the Section V-C
// blind-spot variant that serves traffic with (almost) no send/recv
// syscalls.
//
// Key entry points:
//
//   - All() — the nine specs; ByName, or direct constructors (ImgDNN,
//     Xapian, Silo, SpecJBB, Moses, DataCaching, WebSearch, TritonHTTP,
//     TritonGRPC, DataCachingIOUring).
//   - Spec — the workload description: syscall numbers (SendNR/RecvNR/
//     PollNR), FailureRPS, QoS limit, threading Model, service-time and
//     contention parameters.
//   - Launch(k, net, spec, linkCfg) — start the server on a kernel and
//     return the running Server (Process, Listener).
//   - ServerCores — the fixed 8-core server allocation every
//     calibration assumes.
//
// Every request-path thread is a kernel loop thread
// (kernel.Process.SpawnLoop): worker-pool workers and two-stage index
// threads share one body (drain); the front end, the dispatcher's network
// and inference threads and the io_uring workers have their own. Each
// body composes service, the step form of a request's service and of a
// maintenance pass, around kernel.Mutex.Acquire; messages and work items
// are values, so a request allocates nothing. Only each process's
// acceptor, main, is a coroutine thread (Epoll.Add checks readiness after
// its syscall returns, which a loop body's last act cannot), so a running
// server holds one goroutine per process.
//
// Specs are plain values: safe to copy, tweak (the ablations zero
// LockShare/MaintenanceEvery), and launch concurrently on independent
// rigs.
package workloads
