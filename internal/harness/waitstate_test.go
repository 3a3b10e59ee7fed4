package harness

import (
	"reflect"
	"testing"
	"time"

	"reqlens/internal/workloads"
)

func quickWaitResult(t *testing.T, parallel int) WaitStateResult {
	t.Helper()
	opt := Quick()
	opt.Seed = 42
	opt.Parallelism = parallel
	return WaitStateSweep([]workloads.Spec{workloads.Silo()}, opt)
}

// waitResultPoints flattens every measured cell of a result.
func waitResultPoints(r WaitStateResult) []WaitPoint {
	var ps []WaitPoint
	for _, w := range r.Workloads {
		ps = append(ps, w.Points...)
	}
	for _, d := range r.Diagnosis {
		ps = append(ps, d.Point)
	}
	return ps
}

// The decomposition is a partition: on any window with scheduler
// activity the three shares must sum to exactly 1 (within float
// division noise) and each lie in [0,1].
func TestWaitSharesSumToOne(t *testing.T) {
	measured := 0
	for _, p := range waitResultPoints(quickWaitResult(t, 0)) {
		if p.Gap {
			continue
		}
		if p.OnCPU+p.Runnable+p.Blocked <= 0 {
			t.Fatalf("%s level=%.2f: no accounted time", p.Workload, p.Level)
		}
		measured++
		sum := p.OnCPUShare + p.RunnableShare + p.BlockedShare
		if sum < 1-1e-9 || sum > 1+1e-9 {
			t.Fatalf("%s level=%.2f: shares sum to %v", p.Workload, p.Level, sum)
		}
		for _, s := range []float64{p.OnCPUShare, p.RunnableShare, p.BlockedShare} {
			if s < 0 || s > 1 {
				t.Fatalf("%s level=%.2f: share %v out of range", p.Workload, p.Level, s)
			}
		}
	}
	if measured == 0 {
		t.Fatal("no measured points")
	}
}

func TestWaitStateSweepParallelDeterminism(t *testing.T) {
	seq := quickWaitResult(t, 1)
	par := quickWaitResult(t, 2)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel sweep differs from sequential:\nseq %+v\npar %+v", seq, par)
	}
	if RenderWaitStates(seq) != RenderWaitStates(par) || RenderWaitFolded(seq) != RenderWaitFolded(par) {
		t.Fatal("rendered output differs across Parallelism")
	}
}

// The headline claim: wait-state shares attribute an inflated p99 to
// its cause. Saturation and a noisy tenant move time into runnable
// (CPU queueing); a delayed link moves it into blocked and leaves the
// run queue empty.
func TestWaitStateDiagnosisAttribution(t *testing.T) {
	r := quickWaitResult(t, 0)
	byName := map[string]WaitPoint{}
	for _, d := range r.Diagnosis {
		if d.Point.Gap {
			t.Fatalf("diagnosis %s lost to a gap", d.Scenario)
		}
		byName[d.Scenario] = d.Point
	}
	base, ok := byName["baseline"]
	if !ok {
		t.Fatal("no baseline scenario")
	}
	over := byName["overload"]
	netem := byName["netem-delay-10ms"]
	noisy := byName["noisy-neighbor"]

	if over.RunnableShare < base.RunnableShare+0.05 {
		t.Fatalf("overload runnable %.3f vs baseline %.3f: saturation not visible",
			over.RunnableShare, base.RunnableShare)
	}
	if noisy.RunnableShare < base.RunnableShare+0.05 {
		t.Fatalf("noisy runnable %.3f vs baseline %.3f: contention not visible",
			noisy.RunnableShare, base.RunnableShare)
	}
	if netem.BlockedShare <= base.BlockedShare {
		t.Fatalf("netem blocked %.3f vs baseline %.3f: delay should deepen blocking",
			netem.BlockedShare, base.BlockedShare)
	}
	if netem.RunnableShare > base.RunnableShare+0.02 {
		t.Fatalf("netem runnable %.3f vs baseline %.3f: a delayed link must not look like queueing",
			netem.RunnableShare, base.RunnableShare)
	}
	// The delayed node is slow by the client's clock but idle by the
	// scheduler's — the pair no single signal provides.
	if netem.P99 < 2*base.P99 {
		t.Fatalf("netem p99 %v vs baseline %v: delay not visible client-side", netem.P99, base.P99)
	}

	// Sweep side: the runnable share inflects upward as load approaches
	// the failure point.
	pts := r.Workloads[0].Points
	if first, last := pts[0], pts[len(pts)-1]; last.RunnableShare <= first.RunnableShare {
		t.Fatalf("runnable share did not grow with load: %.4f -> %.4f",
			first.RunnableShare, last.RunnableShare)
	}
}

// TestGoldenWaitStates pins the quick silo wait-state study — raw JSON
// plus the exact text the `reqlens waitstates -quick -workload silo`
// invocation prints (table + folded stacks), which make check diffs
// against the real binary.
func TestGoldenWaitStates(t *testing.T) {
	if raceEnabled {
		t.Skip("byte-exact regression compare; re-running under -race adds no coverage")
	}
	r := quickWaitResult(t, 0)
	checkGolden(t, "waitstates.json", r)
	txt := RenderWaitStates(r) + "\n" + RenderWaitFolded(r)
	checkGoldenBytes(t, "waitstates.txt", []byte(txt))
}

// The wait-state pair fires on every scheduler transition — far more
// often than the syscall probes — so its cost needs its own Section VI
// style pin: observing the server at memcached's event rate must tax
// the machine (ServerCores over the run) by less than 1%. The per-tgid
// early filter is what keeps the co-located client's own context
// switches out of that budget.
func TestWaitStateProbeCPUShareBelowOnePercent(t *testing.T) {
	opt := Quick()
	opt.MinSends = 256
	spec := workloads.DataCaching()
	rate := 0.7 * spec.FailureRPS
	rig := NewRig(spec, RigOptions{Seed: 42, Rate: rate, WaitStates: true})
	defer rig.Close()
	start := time.Duration(rig.ServerK.Now())
	rig.Warmup(opt.Warmup)
	rig.Measure(windowFor(opt.MinSends, rate))
	if err := rig.ServerK.Tracer().LastError(); err != nil {
		t.Fatalf("probe faults: %v", err)
	}
	elapsed := time.Duration(rig.ServerK.Now()) - start
	var cost time.Duration
	for _, th := range rig.Server.Process().Threads() {
		cost += th.ProbeCost()
	}
	if cost <= 0 {
		t.Fatal("wait-state probes charged no cost — measuring nothing")
	}
	share := 100 * float64(cost) / float64(elapsed*workloads.ServerCores)
	if share >= 1 {
		t.Fatalf("wait-state probe machine share = %.3f%%, want < 1%%", share)
	}
}
