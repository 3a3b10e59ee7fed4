package faults

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"reqlens/internal/kernel"
	"reqlens/internal/machine"
	"reqlens/internal/netsim"
	"reqlens/internal/sim"
)

func testKernel(ncpu int) (*sim.Env, *kernel.Kernel) {
	env := sim.NewEnv(1)
	prof := machine.Profile{
		Name: "test", Sockets: 1, CoresPerSock: ncpu, ThreadsPerCore: 1,
		TimeSlice: time.Millisecond,
	}
	return env, kernel.New(env, prof)
}

type fakeProbes struct {
	detaches, reattaches int
	attached             bool
}

func (f *fakeProbes) Detach()         { f.detaches++; f.attached = false }
func (f *fakeProbes) Reattach() error { f.reattaches++; f.attached = true; return nil }

func TestValidate(t *testing.T) {
	env, k := testKernel(2)
	defer env.Shutdown()
	cases := []struct {
		name string
		plan Plan
		tgt  Target
	}{
		{"nil kernel", Plan{}, Target{}},
		{"unknown kind", Plan{Faults: []Fault{{Kind: Kind(99)}}}, Target{Kernel: k}},
		{"negative start", Plan{Faults: []Fault{{Kind: CPUOffline, Start: -1}}}, Target{Kernel: k}},
		{"churn without probes", ProbeChurnPlan(0, time.Millisecond), Target{Kernel: k}},
	}
	for _, c := range cases {
		if _, err := Arm(c.plan, c.tgt); err == nil {
			t.Errorf("%s: Arm accepted invalid input", c.name)
		}
	}
}

// TestArmClearLeavesNoTrace arms a multi-fault plan and clears it before
// any fault starts: no events may remain pending and nothing may have
// been applied.
func TestArmClearLeavesNoTrace(t *testing.T) {
	env, k := testKernel(4)
	defer env.Shutdown()
	plan := Plan{Name: "mix", Seed: 9, Faults: []Fault{
		{Kind: CPUOffline, Start: time.Second, Duration: time.Second},
		{Kind: MigrationStorm, Start: time.Second},
		{Kind: ClockJitter, Start: time.Second},
		{Kind: NoisyNeighbor, Start: time.Second},
		{Kind: RingStall, Start: time.Second, Duration: time.Second},
	}}
	var syscalls int
	k.Tracer().AddListener(func(kernel.SyscallEvent) { syscalls++ })
	c := MustArm(plan, Target{Kernel: k})
	c.Clear()
	c.Clear() // idempotent
	if env.Step() {
		t.Fatalf("an event was still pending after arm+clear: it fired at %v", env.Now())
	}
	if len(c.Applied()) != 0 {
		t.Fatalf("cleared plan applied faults: %v", c.Applied())
	}
	env.RunFor(3 * time.Second)
	if k.OnlineCPUs() != 4 || syscalls != 0 {
		t.Fatal("cleared plan still perturbed the kernel")
	}
}

func TestCPUOfflineWindow(t *testing.T) {
	env, k := testKernel(4)
	defer env.Shutdown()
	plan := Plan{Faults: []Fault{{Kind: CPUOffline, Start: time.Millisecond, Duration: 2 * time.Millisecond, CPUs: 2}}}
	MustArm(plan, Target{Kernel: k})
	var during, after int
	env.Post(1500*time.Microsecond, func() { during = k.OnlineCPUs() })
	env.Post(3500*time.Microsecond, func() { after = k.OnlineCPUs() })
	env.RunFor(5 * time.Millisecond)
	if during != 2 || after != 4 {
		t.Fatalf("online CPUs during/after window = %d/%d, want 2/4", during, after)
	}
}

func TestMigrationStormTicksAndStops(t *testing.T) {
	env, k := testKernel(2)
	defer env.Shutdown()
	plan := Plan{Faults: []Fault{{Kind: MigrationStorm, Period: time.Millisecond, Duration: 5 * time.Millisecond}}}
	c := MustArm(plan, Target{Kernel: k})
	env.RunFor(20 * time.Millisecond)
	got := c.Applied()["affinity-flush"]
	if got < 4 || got > 6 {
		t.Fatalf("storm flushed %d times over a 5ms window at 1ms period", got)
	}
}

func TestClockJitterBoundedMonotone(t *testing.T) {
	env, k := testKernel(1)
	defer env.Shutdown()
	amp := 5 * time.Microsecond
	c := MustArm(ClockJitterPlan(amp), Target{Kernel: k})
	var last uint64
	for i := 0; i < 200; i++ {
		env.RunFor(time.Microsecond)
		raw := uint64(env.Now())
		got := k.Tracer().KtimeGetNS()
		if got < last {
			t.Fatalf("warped clock went backwards: %d after %d", got, last)
		}
		if got < raw {
			t.Fatalf("warped clock %d below raw %d", got, raw)
		}
		if got > raw+uint64(amp) && got != last {
			t.Fatalf("skew out of range: raw=%d got=%d", raw, got)
		}
		last = got
	}
	c.Clear()
	if got, raw := k.Tracer().KtimeGetNS(), uint64(env.Now()); got != raw {
		t.Fatalf("clock still warped after Clear: %d != %d", got, raw)
	}
}

// TestClockJitterReplay arms the same plan on two identical kernels and
// checks the warped readings match call-for-call.
func TestClockJitterReplay(t *testing.T) {
	read := func() []uint64 {
		env, k := testKernel(1)
		defer env.Shutdown()
		MustArm(ClockJitterPlan(3*time.Microsecond), Target{Kernel: k})
		var out []uint64
		for i := 0; i < 50; i++ {
			env.RunFor(time.Microsecond)
			out = append(out, k.Tracer().KtimeGetNS())
		}
		return out
	}
	if a, b := read(), read(); !reflect.DeepEqual(a, b) {
		t.Fatalf("jitter sequence not reproducible:\n%v\n%v", a, b)
	}
}

func TestNoisyNeighborFloodsThenStops(t *testing.T) {
	env, k := testKernel(2)
	defer env.Shutdown()
	var calls int
	k.Tracer().AddListener(func(ev kernel.SyscallEvent) {
		if ev.Enter && strings.HasPrefix(ev.Thread.Name(), "noise") {
			calls++
		}
	})
	plan := Plan{Faults: []Fault{{
		Kind: NoisyNeighbor, Start: time.Millisecond, Duration: 4 * time.Millisecond,
		Threads: 2, Period: 200 * time.Microsecond, Burn: 20 * time.Microsecond,
	}}}
	MustArm(plan, Target{Kernel: k})
	env.RunFor(5 * time.Millisecond)
	during := calls
	if during == 0 {
		t.Fatal("neighbor generated no syscalls during its window")
	}
	env.RunFor(5 * time.Millisecond)
	// At most one in-flight iteration lands after the window closes.
	if calls > during+2 {
		t.Fatalf("neighbor kept running after window: %d -> %d", during, calls)
	}
}

func TestProbeChurnDetachesAndReattaches(t *testing.T) {
	env, k := testKernel(1)
	defer env.Shutdown()
	probes := &fakeProbes{attached: true}
	plan := ProbeChurnPlan(time.Millisecond, 2*time.Millisecond)
	MustArm(plan, Target{Kernel: k, Probes: probes})
	var midAttached bool
	env.Post(2*time.Millisecond, func() { midAttached = probes.attached })
	env.RunFor(5 * time.Millisecond)
	if midAttached {
		t.Fatal("probes still attached inside churn window")
	}
	if probes.detaches != 1 || probes.reattaches != 1 || !probes.attached {
		t.Fatalf("churn bookkeeping: %+v", probes)
	}
}

func TestRingStallWindow(t *testing.T) {
	env, k := testKernel(1)
	defer env.Shutdown()
	c := MustArm(Plan{Faults: []Fault{{Kind: RingStall, Start: time.Millisecond, Duration: 2 * time.Millisecond}}}, Target{Kernel: k})
	var during, after bool
	env.Post(2*time.Millisecond, func() { during = c.RingStalled() })
	env.Post(4*time.Millisecond, func() { after = c.RingStalled() })
	env.RunFor(5 * time.Millisecond)
	if !during || after {
		t.Fatalf("RingStalled during/after = %v/%v, want true/false", during, after)
	}
}

// TestClearUndoesActiveFaults opens indefinite faults (Duration 0) and
// checks Clear restores the kernel mid-window.
func TestClearUndoesActiveFaults(t *testing.T) {
	env, k := testKernel(4)
	defer env.Shutdown()
	probes := &fakeProbes{attached: true}
	plan := Plan{Seed: 3, Faults: []Fault{
		{Kind: CPUOffline, CPUs: 2},
		{Kind: ClockJitter},
		{Kind: MigrationStorm},
		{Kind: ProbeChurn},
		{Kind: RingStall},
	}}
	c := MustArm(plan, Target{Kernel: k, Probes: probes})
	env.RunFor(2 * time.Millisecond)
	if k.OnlineCPUs() != 2 || probes.attached || !c.RingStalled() {
		t.Fatalf("faults not active: cpus=%d probes=%+v", k.OnlineCPUs(), probes)
	}
	c.Clear()
	if k.OnlineCPUs() != 4 || !probes.attached || c.RingStalled() {
		t.Fatalf("Clear did not restore: cpus=%d probes=%+v stalled=%v",
			k.OnlineCPUs(), probes, c.RingStalled())
	}
	if got, raw := k.Tracer().KtimeGetNS(), uint64(env.Now()); got != raw {
		t.Fatalf("clock still warped after Clear")
	}
	flushes := c.Applied()["affinity-flush"]
	env.RunFor(5 * time.Millisecond)
	if c.Applied()["affinity-flush"] != flushes {
		t.Fatal("storm still ticking after Clear")
	}
}

// netemShift reshapes every link to cfg from start for dur (0 = until
// Clear).
func netemShift(start, dur time.Duration, cfg netsim.Config) Plan {
	return Plan{Name: "netem-shift", Faults: []Fault{{Kind: NetemShift, Start: start, Duration: dur, Netem: cfg}}}
}

// TestNetemShiftWindow: the link override appears at the window start
// and is removed at the end; arming requires a target network and a
// non-zero config.
func TestNetemShiftWindow(t *testing.T) {
	env, k := testKernel(2)
	defer env.Shutdown()
	net := netsim.New(env)
	cfg := netsim.Config{Delay: 10 * time.Millisecond}

	if _, err := Arm(netemShift(0, time.Second, cfg), Target{Kernel: k}); err == nil {
		t.Fatal("Arm accepted netem-shift without a target network")
	}
	bad := Plan{Faults: []Fault{{Kind: NetemShift}}}
	if _, err := Arm(bad, Target{Kernel: k, Net: net}); err == nil {
		t.Fatal("Arm accepted netem-shift with a zero link config")
	}

	plan := netemShift(time.Millisecond, 2*time.Millisecond, cfg)
	c := MustArm(plan, Target{Kernel: k, Net: net})
	var during, after bool
	env.Post(1500*time.Microsecond, func() { during = net.Shaped() })
	env.Post(3500*time.Microsecond, func() { after = net.Shaped() })
	env.RunFor(5 * time.Millisecond)
	if !during || after {
		t.Fatalf("Shaped() during/after window = %v/%v, want true/false", during, after)
	}
	if got := c.Applied()["netem-shift"]; got != 1 {
		t.Fatalf("applied netem-shift %d times, want 1", got)
	}
}

// TestNetemShiftClearRestores: Clear mid-window removes the override.
func TestNetemShiftClearRestores(t *testing.T) {
	env, k := testKernel(2)
	defer env.Shutdown()
	net := netsim.New(env)
	c := MustArm(netemShift(0, 0, netsim.Config{Loss: 0.5}), Target{Kernel: k, Net: net})
	env.RunFor(time.Millisecond)
	if !net.Shaped() {
		t.Fatal("open netem-shift window not applied")
	}
	c.Clear()
	if net.Shaped() {
		t.Fatal("Clear left the link override in place")
	}
}
