package harness

import (
	"reflect"
	"testing"
	"time"

	"reqlens/internal/faults"
	"reqlens/internal/netsim"
	"reqlens/internal/workloads"
)

// TestRobustnessMatrixParallelDeterminism is the matrix's engine
// guarantee: for a fixed seed the full workload x plan x level grid is
// bit-identical across Parallelism settings, fault injections included.
func TestRobustnessMatrixParallelDeterminism(t *testing.T) {
	opt := Quick()
	opt.Levels = []float64{0.4, 0.8}
	plans := []faults.Plan{
		faults.CPUOfflinePlan(2),
		faults.ClockJitterPlan(5 * time.Microsecond),
		faults.DelayPlan(5 * time.Millisecond),
	}
	seq := opt
	seq.Parallelism = 1
	par := opt
	par.Parallelism = 4

	specs := []workloads.Spec{workloads.Silo()}
	a := RobustnessMatrix(specs, plans, seq)
	b := RobustnessMatrix(specs, plans, par)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("parallel robustness matrix differs from sequential:\nseq %+v\npar %+v", a, b)
	}
}

// TestRobustnessBaselineMatchesTable2 checks the matrix's implicit
// fault-free plan reproduces the plain Fig2/Table2 windows exactly:
// same R^2 bit-for-bit, because the empty plan arms nothing and draws
// nothing.
func TestRobustnessBaselineMatchesTable2(t *testing.T) {
	opt := Quick()
	specs := []workloads.Spec{workloads.Silo()}
	rows := RobustnessMatrix(specs, nil, opt)
	if len(rows) != 1 || len(rows[0].Plans) != 0 {
		t.Fatalf("unexpected matrix shape: %+v", rows)
	}
	t2 := Table2(specs, []netsim.Config{{}}, opt)
	if rows[0].Baseline != t2[0].R2[0] {
		t.Fatalf("baseline R2 %v != Table2 clean R2 %v (no-fault plan must be bit-identical)",
			rows[0].Baseline, t2[0].R2[0])
	}
	f2 := Fig2(specs[0], opt)
	if rows[0].Baseline != f2.Fit.R2 {
		t.Fatalf("baseline R2 %v != Fig2 R2 %v", rows[0].Baseline, f2.Fit.R2)
	}
}

// TestRobustnessNetemDeltas reproduces the paper's Table II finding
// through the fault-plan path: injected delay and loss leave the Eq. 1
// correlation essentially unchanged (|R^2 delta| < 0.02).
func TestRobustnessNetemDeltas(t *testing.T) {
	opt := Quick()
	plans := []faults.Plan{
		faults.DelayPlan(10 * time.Millisecond),
		faults.LossPlan(0.01),
	}
	rows := RobustnessMatrix([]workloads.Spec{workloads.Silo()}, plans, opt)
	row := rows[0]
	if row.Baseline < 0.95 {
		t.Fatalf("degenerate baseline R2 %v", row.Baseline)
	}
	for _, p := range row.Plans {
		if d := p.Delta; d < -0.02 || d > 0.02 {
			t.Errorf("plan %s: R2 delta %+.4f exceeds the paper's robustness bound", p.Plan, d)
		}
	}
}

// TestKernelFaultPlansPerturbButCorrelate arms the kernel-side
// injectors and checks two things: the faults demonstrably ran
// (Applied is non-empty at rig level), and the correlation survives
// with a usable R^2 — the claim that motivates in-kernel metrics.
func TestKernelFaultPlansPerturbButCorrelate(t *testing.T) {
	if raceEnabled {
		t.Skip("single-threaded physics check; re-running under -race adds no coverage")
	}
	opt := Quick()
	opt.Levels = []float64{0.4, 0.8}
	plans := []faults.Plan{
		faults.MigrationStormPlan(500 * time.Microsecond),
		faults.NoisyNeighborPlan(4),
		faults.ClockJitterPlan(5 * time.Microsecond),
	}
	rows := RobustnessMatrix([]workloads.Spec{workloads.DataCaching()}, plans, opt)
	for _, p := range rows[0].Plans {
		if p.R2 < 0.9 {
			t.Errorf("plan %s: R2 %v collapsed under a kernel-side fault", p.Plan, p.R2)
		}
	}
}

// TestRigArmAppliesFaults exercises the rig-level integration directly:
// a plan armed on a live rig perturbs the kernel and restores it.
func TestRigArmAppliesFaults(t *testing.T) {
	spec := workloads.Silo()
	rig := NewRig(spec, RigOptions{Seed: 5, Rate: 0.4 * spec.FailureRPS, Probes: true})
	defer rig.Close()
	rig.Warmup(200 * time.Millisecond)
	plan := faults.Plan{Name: "mix", Seed: 2, Faults: []faults.Fault{
		{Kind: faults.CPUOffline, CPUs: 3, Duration: 40 * time.Millisecond},
		{Kind: faults.ProbeChurn, Start: 10 * time.Millisecond, Duration: 20 * time.Millisecond},
	}}
	attached := rig.ServerK.Tracer().Attached()
	ctl := rig.Arm(plan)
	rig.Advance(time.Millisecond) // faults apply at their scheduled instants
	if rig.ServerK.OnlineCPUs() != workloads.ServerCores-3 {
		t.Fatalf("offline fault not applied: %d CPUs online", rig.ServerK.OnlineCPUs())
	}
	rig.Advance(14 * time.Millisecond)
	if got := rig.ServerK.Tracer().Attached(); got != 0 {
		t.Fatalf("churn window: %d links still attached, want 0", got)
	}
	rig.Advance(100 * time.Millisecond)
	if got := rig.ServerK.Tracer().Attached(); got != attached {
		t.Fatalf("after churn window: %d links, want %d", got, attached)
	}
	if rig.ServerK.OnlineCPUs() != workloads.ServerCores {
		t.Fatalf("CPUs not restored: %d online", rig.ServerK.OnlineCPUs())
	}
	ap := ctl.Applied()
	if ap["cpu-offline"] != 1 || ap["probe-churn"] != 1 {
		t.Fatalf("Applied = %v", ap)
	}
	if ctl.Err() != nil {
		t.Fatalf("controller error: %v", ctl.Err())
	}
	// The observer keeps counting after reattach.
	rig.Obs.Sample()
	rig.Advance(100 * time.Millisecond)
	if w := rig.Obs.Sample(); w.Send.Calls == 0 {
		t.Fatal("no sends observed after probe reattach")
	}
}

// TestRingStallForcesDrops opens a stall window longer than the ring
// can absorb and checks the producer-side drop path fires; the same
// rig without the stall keeps the ring lossless.
func TestRingStallForcesDrops(t *testing.T) {
	spec := workloads.DataCaching()
	run := func(stall bool) uint64 {
		rig := NewRig(spec, RigOptions{
			Seed: 9, Rate: 0.2 * spec.FailureRPS,
			Probes: true, Stream: true, StreamBytes: 1 << 18,
		})
		defer rig.Close()
		rig.Warmup(200 * time.Millisecond)
		if stall {
			rig.Arm(faults.Plan{Name: "ring-stall", Seed: 15, Faults: []faults.Fault{
				{Kind: faults.RingStall, Start: 10 * time.Millisecond, Duration: 400 * time.Millisecond},
			}})
		}
		rig.Measure(600 * time.Millisecond)
		return rig.Stream.Sample().Dropped
	}
	if d := run(false); d != 0 {
		t.Fatalf("unstalled ring dropped %d events (ring too small for the test's rate)", d)
	}
	if d := run(true); d == 0 {
		t.Fatal("stalled ring dropped nothing: stall window did not pressure the ring")
	}
}
