package workloads

import (
	"runtime"
	"testing"
	"time"

	"reqlens/internal/kernel"
	"reqlens/internal/loadgen"
	"reqlens/internal/machine"
	"reqlens/internal/netsim"
	"reqlens/internal/sim"
	"reqlens/internal/trace"
)

func TestCatalog(t *testing.T) {
	all := All()
	if len(all) != 9 {
		t.Fatalf("All() = %d workloads, want the paper's 9", len(all))
	}
	seen := map[string]bool{}
	for _, s := range all {
		if seen[s.Name] {
			t.Fatalf("duplicate workload %s", s.Name)
		}
		seen[s.Name] = true
		if s.ServiceMean <= 0 || s.FailureRPS <= 0 || s.Workers <= 0 {
			t.Fatalf("%s: incomplete spec %+v", s.Name, s)
		}
		if s.QoS <= 0 {
			t.Fatalf("%s: no QoS threshold", s.Name)
		}
	}
	if _, ok := ByName("xapian"); !ok {
		t.Fatal("ByName(xapian) failed")
	}
	if _, ok := ByName("data-caching-iouring"); !ok {
		t.Fatal("ByName for the io_uring variant failed")
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("ByName(nope) should fail")
	}
}

func TestSyscallSignaturesMatchPaper(t *testing.T) {
	// Section IV-A: tailbench recvfrom/sendto + select; data caching
	// read/sendmsg + epoll; web search read/write; triton grpc
	// recvmsg/sendmsg, triton http recvfrom/sendto.
	cases := []struct {
		spec             Spec
		recv, send, poll int
	}{
		{ImgDNN(), kernel.SysRecvfrom, kernel.SysSendto, kernel.SysSelect},
		{Moses(), kernel.SysRecvfrom, kernel.SysSendto, kernel.SysSelect},
		{DataCaching(), kernel.SysRead, kernel.SysSendmsg, kernel.SysEpollWait},
		{WebSearch(), kernel.SysRead, kernel.SysWrite, kernel.SysEpollWait},
		{TritonHTTP(), kernel.SysRecvfrom, kernel.SysSendto, kernel.SysEpollWait},
		{TritonGRPC(), kernel.SysRecvmsg, kernel.SysSendmsg, kernel.SysEpollWait},
	}
	for _, c := range cases {
		if c.spec.RecvNR != c.recv || c.spec.SendNR != c.send || c.spec.PollNR != c.poll {
			t.Errorf("%s: syscall signature %d/%d/%d, want %d/%d/%d",
				c.spec.Name, c.spec.RecvNR, c.spec.SendNR, c.spec.PollNR, c.recv, c.send, c.poll)
		}
	}
}

func TestFailureRPSMatchesPaper(t *testing.T) {
	want := map[string]float64{
		"img-dnn": 1950, "xapian": 970, "silo": 2100, "specjbb": 3700,
		"moses": 900, "data-caching": 62000, "web-search": 420,
		"triton-http": 21, "triton-grpc": 21,
	}
	for _, s := range All() {
		if s.FailureRPS != want[s.Name] {
			t.Errorf("%s: FailureRPS = %v, want %v", s.Name, s.FailureRPS, want[s.Name])
		}
	}
}

func TestDemandSamplerMoments(t *testing.T) {
	env := sim.NewEnv(3)
	d := newDemandSampler(env.NewRNG(), 10*time.Millisecond, 0.5)
	var sum, sumSq float64
	const n = 20000
	for i := 0; i < n; i++ {
		v := float64(d.sample())
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	if mean < 9.5e6 || mean > 10.5e6 {
		t.Fatalf("sampled mean = %v ns, want ~10ms", time.Duration(mean))
	}
	cv := (sumSq/n - mean*mean)
	cvRatio := cv / (mean * mean)
	if cvRatio < 0.2 || cvRatio > 0.32 {
		t.Fatalf("sampled CV^2 = %v, want ~0.25", cvRatio)
	}
}

func TestDemandSamplerFloor(t *testing.T) {
	env := sim.NewEnv(4)
	d := newDemandSampler(env.NewRNG(), 2*time.Microsecond, 3.0)
	for i := 0; i < 1000; i++ {
		if v := d.sample(); v < time.Microsecond {
			t.Fatalf("demand %v below 1us floor", v)
		}
	}
}

// record captures tgid's ground-truth syscall events through a kernel
// listener, which charges the traced threads nothing.
func record(k *kernel.Kernel, tgid int) *[]trace.Event {
	evs := new([]trace.Event)
	k.Tracer().AddListener(func(ev kernel.SyscallEvent) {
		if int(ev.Thread.PidTgid()>>32) == tgid {
			*evs = append(*evs, trace.Event{Time: ev.Time, PidTgid: ev.Thread.PidTgid(), NR: ev.NR, Enter: ev.Enter, Ret: ev.Ret})
		}
	})
	return evs
}

// launchAndDrive runs a workload with a small client and returns the
// recorded server syscall trace.
func launchAndDrive(t *testing.T, spec Spec, rate float64, dur time.Duration) ([]trace.Event, float64) {
	t.Helper()
	env := sim.NewEnv(21)
	prof := machine.AMD()
	prof.Sockets, prof.CoresPerSock, prof.ThreadsPerCore = 1, ServerCores, 1
	k := kernel.New(env, prof)
	n := netsim.New(env)
	srv := Launch(k, n, spec, netsim.Config{})
	rec := record(k, srv.Process().TGID())
	cl := loadgen.New(k, srv.Listener(), loadgen.Options{
		Rate: rate, Conns: 16, ReqSize: spec.ReqSize, PerOpCost: spec.ClientPerOpCost(),
	})
	env.RunFor(dur / 2)
	cl.StartMeasurement()
	*rec = (*rec)[:0]
	env.RunFor(dur)
	res := cl.Snapshot()
	evs := *rec
	env.Shutdown()
	return evs, res.RealRPS
}

func TestWorkerPoolServesAndUsesDeclaredSyscalls(t *testing.T) {
	spec := ImgDNN()
	rate := 0.3 * spec.FailureRPS
	evs, real := launchAndDrive(t, spec, rate, 400*time.Millisecond)
	if real < 0.8*rate || real > 1.2*rate {
		t.Fatalf("RealRPS = %v, want ~%v", real, rate)
	}
	counts := trace.CountByName(evs)
	if counts["sendto"] == 0 || counts["recvfrom"] == 0 || counts["select"] == 0 {
		t.Fatalf("missing declared syscalls: %v", counts)
	}
	if counts["epoll_wait"] != 0 {
		t.Fatalf("tailbench should poll via select, got %v", counts)
	}
	// One send per response.
	if diff := float64(counts["sendto"]) - real*0.4; diff < -0.2*real*0.4 || diff > 0.2*real*0.4 {
		t.Fatalf("sendto count %d inconsistent with RPS %v over 400ms", counts["sendto"], real)
	}
}

func TestEventLoopVariantUsesEpoll(t *testing.T) {
	spec := DataCaching()
	evs, real := launchAndDrive(t, spec, 0.2*spec.FailureRPS, 100*time.Millisecond)
	if real == 0 {
		t.Fatal("no throughput")
	}
	counts := trace.CountByName(evs)
	if counts["read"] == 0 || counts["sendmsg"] == 0 || counts["epoll_wait"] == 0 {
		t.Fatalf("missing declared syscalls: %v", counts)
	}
}

func TestTwoStageServesThroughBothProcesses(t *testing.T) {
	env := sim.NewEnv(22)
	prof := machine.AMD()
	prof.Sockets, prof.CoresPerSock, prof.ThreadsPerCore = 1, ServerCores, 1
	k := kernel.New(env, prof)
	n := netsim.New(env)
	spec := WebSearch()
	srv := Launch(k, n, spec, netsim.Config{})
	ws := srv.(*twoStage)
	front := record(k, ws.proc.TGID())
	back := record(k, ws.back.TGID())
	cl := loadgen.New(k, srv.Listener(), loadgen.Options{
		Rate: 0.4 * spec.FailureRPS, Conns: 16, ReqSize: spec.ReqSize,
	})
	env.RunFor(500 * time.Millisecond)
	cl.StartMeasurement()
	env.RunFor(time.Second)
	res := cl.Snapshot()
	env.Shutdown()
	if res.RealRPS < 0.3*spec.FailureRPS {
		t.Fatalf("two-stage RealRPS = %v", res.RealRPS)
	}
	fc := trace.CountByName(*front)
	bc := trace.CountByName(*back)
	if fc["write"] == 0 || fc["read"] == 0 {
		t.Fatalf("front-end missing read/write: %v", fc)
	}
	if bc["write"] == 0 || bc["read"] == 0 {
		t.Fatalf("backend missing read/write: %v", bc)
	}
	// The front-end writes a forward plus 1-3 drifting response chunks
	// per request, so its write count runs 2-4x the backend's.
	ratio := float64(fc["write"]) / float64(bc["write"])
	if ratio < 1.6 || ratio > 4.4 {
		t.Fatalf("front/back write ratio = %v, want 2..4", ratio)
	}
}

func TestDispatcherServes(t *testing.T) {
	spec := TritonGRPC()
	evs, real := launchAndDrive(t, spec, 0.5*spec.FailureRPS, 4*time.Second)
	if real < 0.3*spec.FailureRPS {
		t.Fatalf("dispatcher RealRPS = %v", real)
	}
	counts := trace.CountByName(evs)
	if counts["recvmsg"] == 0 || counts["sendmsg"] == 0 || counts["epoll_wait"] == 0 {
		t.Fatalf("missing declared syscalls: %v", counts)
	}
	// The eventfd wake path must not pollute the send family: writes
	// exist but sendmsg counts responses.
	if counts["write"] == 0 {
		t.Fatalf("dispatcher should show eventfd writes: %v", counts)
	}
}

func TestIOUringVariantIsSyscallSilent(t *testing.T) {
	spec := DataCachingIOUring()
	evs, real := launchAndDrive(t, spec, 0.3*spec.FailureRPS, 100*time.Millisecond)
	if real < 0.2*spec.FailureRPS {
		t.Fatalf("io_uring variant RealRPS = %v", real)
	}
	counts := trace.CountByName(evs)
	if counts["read"] != 0 || counts["sendmsg"] != 0 || counts["epoll_wait"] != 0 {
		t.Fatalf("io_uring variant should not issue socket syscalls: %v", counts)
	}
	if counts["io_uring_enter"] == 0 {
		t.Fatalf("expected io_uring_enter activity: %v", counts)
	}
}

// TestServerSpawnsNoGoroutines: under load, a launched server adds only
// its acceptors' goroutines, one coroutine main per process; every
// request-path thread is a loop thread (kernel.Process.SpawnLoop), as
// are the load generator's. The count is what Shutdown ends, and none
// may outlive it: a count taken before Launch can still include the
// previous test's goroutine, which may exit while this one runs.
func TestServerSpawnsNoGoroutines(t *testing.T) {
	for _, c := range []struct {
		spec  Spec
		mains int
		dur   time.Duration
	}{
		{DataCaching(), 1, 100 * time.Millisecond},
		{Silo(), 1, 200 * time.Millisecond},
		{WebSearch(), 2, 500 * time.Millisecond},
		{TritonHTTP(), 1, 4 * time.Second},
		{DataCachingIOUring(), 1, 100 * time.Millisecond},
	} {
		env := sim.NewEnv(23)
		prof := machine.AMD()
		prof.Sockets, prof.CoresPerSock, prof.ThreadsPerCore = 1, ServerCores, 1
		k := kernel.New(env, prof)
		before := runtime.NumGoroutine()
		srv := Launch(k, netsim.New(env), c.spec, netsim.Config{})
		cl := loadgen.New(k, srv.Listener(), loadgen.Options{
			Rate: 0.5 * c.spec.FailureRPS, Conns: 16, ReqSize: c.spec.ReqSize,
		})
		cl.StartMeasurement()
		env.RunFor(c.dur)
		running := runtime.NumGoroutine()
		served := cl.Snapshot().RealRPS
		env.Shutdown()
		after := runtime.NumGoroutine()
		if served == 0 {
			t.Fatalf("%s: no request served", c.spec.Name)
		}
		if added := running - after; added != c.mains || after > before {
			t.Errorf("%s (%v): Shutdown ended %d goroutines and %d outlive it, want %d and 0",
				c.spec.Name, c.spec.Model, added, after-before, c.mains)
		}
	}
}

// TestRequestPathAllocatesNothing: once warmed up, serving a request
// allocates nothing in any server model, the load generator or netsim.
// A message is a value, and every queue and slice on the path reuses its
// storage. Probes are off: their hash-map inserts are outside this path.
// Each run is ~1000 requests; ten of them keep the rare growth of
// loadgen's sentAt map (its hash seed is random, so when it grows is
// not) under the one allocation per run that would read 1.
func TestRequestPathAllocatesNothing(t *testing.T) {
	const requests = 1000 // per run
	for _, spec := range []Spec{DataCaching(), Silo(), WebSearch(), TritonHTTP(), DataCachingIOUring()} {
		env := sim.NewEnv(23)
		prof := machine.AMD()
		prof.Sockets, prof.CoresPerSock, prof.ThreadsPerCore = 1, ServerCores, 1
		k := kernel.New(env, prof)
		srv := Launch(k, netsim.New(env), spec, netsim.Config{})
		rate := 0.5 * spec.FailureRPS
		loadgen.New(k, srv.Listener(), loadgen.Options{Rate: rate, Conns: 16, ReqSize: spec.ReqSize})
		window := time.Duration(requests / rate * float64(time.Second))
		env.RunFor(window) // queues, slices and maps reach their working size
		allocs := testing.AllocsPerRun(10, func() { env.RunFor(window) })
		env.Shutdown()
		if allocs != 0 {
			t.Errorf("%s (%v): %.1f allocs per request, want 0", spec.Name, spec.Model, allocs/requests)
		}
	}
}

func TestLaunchPanicsOnUnknownModel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	env := sim.NewEnv(1)
	k := kernel.New(env, machine.AMD())
	spec := ImgDNN()
	spec.Model = Model(99)
	Launch(k, netsim.New(env), spec, netsim.Config{})
}

func TestModelString(t *testing.T) {
	for m, want := range map[Model]string{
		ModelWorkerPool: "worker-pool", ModelTwoStage: "two-stage",
		ModelDispatcher: "dispatcher", ModelIOUring: "io_uring", Model(9): "?",
	} {
		if m.String() != want {
			t.Fatalf("Model(%d).String() = %q", m, m.String())
		}
	}
	if ImgDNN().String() != "tailbench/img-dnn" {
		t.Fatalf("Spec.String() = %q", ImgDNN().String())
	}
}
