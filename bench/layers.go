package main

// This file is the benchmark's only contact with the program's Go API.
// Everything it calls is what root bench_test.go and cmd/reqlens already
// use; README.md beside this file lists the set ("Pinned API"), so a
// refactor knows exactly what it would have to re-pin through a
// benchmark issue.

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"reqlens/internal/ebpf"
	"reqlens/internal/fleet"
	"reqlens/internal/harness"
	"reqlens/internal/kernel"
	"reqlens/internal/machine"
	"reqlens/internal/sim"
	"reqlens/internal/telemetry"
	"reqlens/internal/workloads"
)

// Span is one timed call into a layer, as the benchmark saw it from
// outside. Parent is an index into the same list, -1 for a root.
type Span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
}

// spanLog keeps spans in memory; the result file gets them at exit.
type spanLog struct {
	t0    time.Time
	spans []Span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) begin(name string, parent int) int {
	l.spans = append(l.spans, Span{Name: name, StartNS: time.Since(l.t0).Nanoseconds(), Parent: parent})
	return len(l.spans) - 1
}

func (l *spanLog) end(i int) { l.spans[i].EndNS = time.Since(l.t0).Nanoseconds() }

// spanSeconds returns the durations of every span called name.
func spanSeconds(spans []Span, name string) []float64 {
	var ds []float64
	for _, s := range spans {
		if s.Name == name {
			ds = append(ds, float64(s.EndNS-s.StartNS)/1e9)
		}
	}
	return ds
}

// fleetSeedStride is fleet's levelSeedStride: the CLI seeds level i of
// a fleet sweep with seed + i*stride, and level i of the other sweeps
// with seed + i. The in-process points use the same seeds, so they are
// the very points the CLI runs.
const fleetSeedStride = 1_000_003

// point is a representative point brought to its first measurement
// window: a rig or a cluster, warmed up.
type point struct {
	rig     *harness.Rig
	cluster *fleet.Cluster
	window  time.Duration
}

// startPoint builds level index li (load level) of w and drives the
// subcommand's simulated warm-up, with telemetry off; its spans split
// that into build and warm-up.
func startPoint(w workload, seed int64, li int, level float64, l *spanLog, parent int) point {
	q := harness.Quick()
	if w.epochs > 0 {
		s := l.begin("fleet.cluster_build_s", parent)
		c := fleet.NewCluster(fleet.Options{
			Seed:        seed + int64(li)*fleetSeedStride,
			Nodes:       fleet.DefaultSpecs(fleetNodes),
			Level:       level,
			Scrape:      fleet.ScrapeConfig{Interval: w.scrapeInterval, MissRate: 0.05},
			Warmup:      q.Warmup,
			Parallelism: w.parallel,
		})
		l.end(s)
		s = l.begin("fleet.warmup_s", parent)
		c.Warmup()
		l.end(s)
		return point{cluster: c}
	}
	spec := workloads.DataCaching()
	rate := level * spec.FailureRPS
	s := l.begin("harness.rig_build_s", parent)
	rig := harness.NewRig(spec, harness.RigOptions{
		Seed: seed + int64(li), Rate: rate,
		Probes: true, Stream: w.stream, WaitStates: w.waitStates,
	})
	l.end(s)
	warm := q.Warmup
	if level >= 0.95 {
		warm = q.OverWarm
	}
	s = l.begin("harness.warmup_s", parent)
	rig.Warmup(warm)
	l.end(s)
	// The harness sizes a window to MinSends sends plus 20 %, 50 ms floor.
	win := time.Duration(float64(q.MinSends) / rate * 1.2 * float64(time.Second))
	if win < 50*time.Millisecond {
		win = 50 * time.Millisecond
	}
	return point{rig: rig, window: win}
}

func (p point) close() {
	if p.cluster != nil {
		p.cluster.Close()
	} else {
		p.rig.Close()
	}
}

// setupOnce times one set-up (setup_s): w's first level from nothing to
// its first measurement window, which is what a run of the subcommand
// does before it measures anything.
func setupOnce(w workload, seed int64) float64 {
	t0 := time.Now()
	p := startPoint(w, seed, 0, w.firstLevel, newSpanLog(), -1)
	d := time.Since(t0).Seconds()
	p.close()
	return d
}

// layerPass runs w's representative point in-process under the
// benchmark's own spans and a CPU profile, and returns the span, Go
// runtime and CPU-split metrics plus the spans themselves. scratch is a
// directory the profile may be written to.
func layerPass(w workload, seed int64, scratch string) (map[string]Metric, []Span, error) {
	profPath := filepath.Join(scratch, "cpu-"+w.name+".pprof")
	pf, err := os.Create(profPath)
	if err != nil {
		return nil, nil, err
	}
	defer os.Remove(profPath)
	defer pf.Close()

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := pprof.StartCPUProfile(pf); err != nil {
		return nil, nil, err
	}

	l := newSpanLog()
	root := l.begin("point", -1)
	p := startPoint(w, seed, w.levelIndex, w.level, l, root)
	if p.cluster != nil {
		for e := 0; e < w.epochs; e++ {
			s := l.begin("fleet.scrape_epoch_s", root)
			p.cluster.ScrapeEpoch()
			l.end(s)
		}
		s := l.begin("fleet.close_s", root)
		p.close()
		l.end(s)
	} else {
		s := l.begin("harness.measure_s", root)
		p.rig.Measure(p.window)
		l.end(s)
		s = l.begin("harness.close_s", root)
		p.close()
		l.end(s)
	}
	l.end(root)

	pprof.StopCPUProfile()
	runtime.ReadMemStats(&after)
	if err := pf.Close(); err != nil {
		return nil, nil, err
	}

	m := map[string]Metric{
		"goruntime.mallocs":   {float64(after.Mallocs - before.Mallocs), "count"},
		"goruntime.alloc_mb":  {float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20), "MB"},
		"goruntime.gc_cycles": {float64(after.NumGC - before.NumGC), "count"},
	}
	for _, name := range []string{
		"harness.rig_build_s", "harness.warmup_s", "harness.measure_s", "harness.close_s",
		"fleet.cluster_build_s", "fleet.warmup_s", "fleet.scrape_epoch_s",
	} {
		m[name] = Metric{sum(spanSeconds(l.spans, name)), "s"}
	}
	m["fleet.scrape_epoch_median_s"] = Metric{median(spanSeconds(l.spans, "fleet.scrape_epoch_s")), "s"}

	traces, err := exec.Command("go", "tool", "pprof", "-traces", profPath).Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go tool pprof -traces: %v", err)
	}
	shares, sampled, err := parsePprofTraces(traces)
	if err != nil {
		return nil, nil, err
	}
	for name, v := range shares {
		m[name] = Metric{v, "ratio"}
	}
	m["goruntime.cpu_sampled_s"] = Metric{sampled, "s"}
	return m, l.spans, nil
}

// listing1 assembles the paper's Listing 1 probe (remember the start
// time of syscall 232 per thread) for a tracepoint ctx of ctxSize.
func listing1(ctxSize int) ebpf.ProgramSpec {
	start := ebpf.NewHashMap("start", 8, 8, 4096)
	a := ebpf.NewAssembler()
	a.Emit(ebpf.Mov64Reg(ebpf.R6, ebpf.R1))
	a.Emit(ebpf.Call(ebpf.HelperGetCurrentPidTgid))
	a.Emit(ebpf.Mov64Reg(ebpf.R7, ebpf.R0))
	a.Emit(ebpf.LoadMem(ebpf.R3, ebpf.R6, 8, ebpf.SizeDW))
	a.JumpImm(ebpf.JmpJNE, ebpf.R3, kernel.SysEpollWait, "out")
	a.Emit(ebpf.Call(ebpf.HelperKtimeGetNS))
	a.Emit(
		ebpf.StoreMem(ebpf.R10, -16, ebpf.R0, ebpf.SizeDW),
		ebpf.StoreMem(ebpf.R10, -8, ebpf.R7, ebpf.SizeDW),
	)
	a.EmitWide(ebpf.LoadMapFD(ebpf.R1, 1))
	a.Emit(
		ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
		ebpf.Add64Imm(ebpf.R2, -8),
		ebpf.Mov64Reg(ebpf.R3, ebpf.R10),
		ebpf.Add64Imm(ebpf.R3, -16),
		ebpf.Mov64Imm(ebpf.R4, 0),
		ebpf.Call(ebpf.HelperMapUpdateElem),
	)
	a.Label("out")
	a.Emit(ebpf.Mov64Imm(ebpf.R0, 0), ebpf.Exit())
	return ebpf.ProgramSpec{
		Name: "listing1", Insns: a.MustAssemble(),
		Maps: map[int32]ebpf.Map{1: start}, CtxSize: ctxSize,
	}
}

// unitBatches is how many timed batches each unit cost takes; the
// reported cost is their median.
const unitBatches = 5

// perCall runs batch (which sets up, then returns the host time of n
// calls) unitBatches times and returns the median host ns per call.
func perCall(n int, batch func(n int) time.Duration) float64 {
	vs := make([]float64, unitBatches)
	for i := range vs {
		vs[i] = float64(batch(n).Nanoseconds()) / float64(n)
	}
	return median(vs)
}

// syscallLoop times n epoll_wait-numbered syscalls of one thread on a
// two-core kernel, with Listing 1 on sys_enter and sys_exit if traced.
func syscallLoop(n int, traced bool) time.Duration {
	env := sim.NewEnv(1)
	defer env.Shutdown()
	prof := machine.AMD()
	prof.Sockets, prof.CoresPerSock, prof.ThreadsPerCore = 1, 2, 1
	k := kernel.New(env, prof)
	if traced {
		for _, tp := range []kernel.Tracepoint{kernel.RawSysEnter, kernel.RawSysExit} {
			k.Tracer().MustAttach(tp, ebpf.MustLoad(listing1(kernel.CtxSizeOf(tp))))
		}
	}
	k.NewProcess("bench").SpawnThread("w", func(t *kernel.Thread) {
		for i := 0; i < n; i++ {
			t.Invoke(kernel.SysEpollWait, [6]uint64{}, func() int64 { return 0 })
		}
	})
	t0 := time.Now()
	env.Run()
	return time.Since(t0)
}

// unitCosts measures the workload-independent host cost of one call
// into each layer (ns, median of batches).
func unitCosts(seed int64) map[string]Metric {
	m := make(map[string]Metric)
	ns := func(name string, v float64) { m[name] = Metric{v, "ns"} }

	ns("sim.post_ns", perCall(1_000_000, func(n int) time.Duration {
		env := sim.NewEnv(1)
		left := n
		var tick func()
		tick = func() {
			if left--; left > 0 {
				env.Post(time.Microsecond, tick)
			}
		}
		env.Post(time.Microsecond, tick)
		t0 := time.Now()
		env.Run()
		return time.Since(t0)
	}))
	ns("sim.handoff_ns", perCall(100_000, func(n int) time.Duration {
		env := sim.NewEnv(1)
		defer env.Shutdown()
		env.Spawn("p", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(time.Microsecond)
			}
		})
		t0 := time.Now()
		env.Run()
		return time.Since(t0)
	}))
	ns("kernel.syscall_ns", perCall(50_000, func(n int) time.Duration { return syscallLoop(n, false) }))
	ns("kernel.traced_syscall_ns", perCall(50_000, func(n int) time.Duration { return syscallLoop(n, true) }))

	insns := 0.0
	run := perCall(500_000, func(n int) time.Duration {
		prog := ebpf.MustLoad(listing1(kernel.SysEnterCtxSize))
		ctx := make([]byte, kernel.SysEnterCtxSize)
		ctx[kernel.CtxOffID] = kernel.SysEpollWait
		env := &ebpf.FixedEnv{TimeNS: 1, PidTgid: 7}
		retired := 0
		t0 := time.Now()
		for i := 0; i < n; i++ {
			_, st, err := prog.Run(ctx, env)
			if err != nil {
				panic(err) // a verified program failing to run is a bug
			}
			retired += st.Instructions
		}
		d := time.Since(t0)
		insns = float64(retired) / float64(n)
		return d
	})
	ns("ebpf.run_ns", run)
	ns("ebpf.ns_per_insn", run/insns)
	ns("ebpf.load_ns", perCall(2_000, func(n int) time.Duration {
		spec := listing1(kernel.SysEnterCtxSize)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if _, err := ebpf.Load(spec); err != nil {
				panic(err)
			}
		}
		return time.Since(t0)
	}))
	ns("ebpf.ring_record_ns", perCall(1_000_000, func(n int) time.Duration {
		ring := ebpf.NewRingBuf("events", 1<<20)
		rec := make([]byte, 40)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			ring.Output(rec)
			if i%1024 == 1023 {
				ring.Drain()
			}
		}
		return time.Since(t0)
	}))

	// One warmed data-caching rig gives Observer.Sample something real to
	// read; one warmed single-node cluster gives a node-sized registry.
	spec := workloads.DataCaching()
	rig := harness.NewRig(spec, harness.RigOptions{Seed: seed, Rate: 0.5 * spec.FailureRPS, Probes: true})
	rig.Warmup(50 * time.Millisecond)
	ns("core.sample_ns", perCall(20_000, func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			rig.Obs.Sample()
		}
		return time.Since(t0)
	}))
	rig.Close()

	c := fleet.NewCluster(fleet.Options{
		Seed: seed, Nodes: fleet.DefaultSpecs(1), Level: 0.6, Warmup: 100 * time.Millisecond,
	})
	c.Warmup()
	c.ScrapeEpoch()
	node := c.Nodes[0]
	ns("fleet.export_ns", perCall(2_000, func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			node.Export()
		}
		return time.Since(t0)
	}))
	raw := node.Export()
	ns("telemetry.writeprom_ns", perCall(2_000, func(n int) time.Duration {
		var buf bytes.Buffer
		t0 := time.Now()
		for i := 0; i < n; i++ {
			buf.Reset()
			if err := node.Rig.Reg.WriteProm(&buf); err != nil {
				panic(err) // bytes.Buffer cannot fail
			}
		}
		return time.Since(t0)
	}))
	ns("telemetry.parseprom_ns", perCall(2_000, func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if _, err := telemetry.ParseProm(bytes.NewReader(raw)); err != nil {
				panic(err) // WriteProm output is ParseProm's own format
			}
		}
		return time.Since(t0)
	}))
	c.Close()
	return m
}
