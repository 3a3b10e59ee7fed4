package harness

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"reqlens/internal/faults"
	"reqlens/internal/kernel"
	"reqlens/internal/resilience"
	"reqlens/internal/telemetry"
	"reqlens/internal/workloads"
)

// tinyOpts is a minimal-scale configuration for supervision tests that
// drive real rigs: small enough that chaos/retry tests re-running whole
// batches stay cheap.
func tinyOpts() ExpOptions {
	return ExpOptions{
		MinSends:  64,
		Estimates: 2,
		Levels:    []float64{0.3, 0.6},
		Warmup:    200 * time.Millisecond,
		OverWarm:  400 * time.Millisecond,
	}
}

// superviseOnly is a Deadline no point comes near: it supervises a run
// (panics become gaps) without retries and without ever expiring.
const superviseOnly = time.Hour

// TestRunPointsPanicIsolation is the tentpole isolation contract: a
// panicking point neither terminates the process nor perturbs any other
// point's bytes, at every Parallelism setting.
func TestRunPointsPanicIsolation(t *testing.T) {
	compute := func(i int) []float64 {
		return []float64{float64(i) * 1.5, float64(i*i) / 3}
	}
	n := 7
	labels := make([]string, n)
	for i := range labels {
		labels[i] = fmt.Sprintf("p%d", i)
	}
	clean, _ := runPoints(ExpOptions{Parallelism: 1}, "", labels,
		func(_ PointCtx, i int) []float64 { return compute(i) })

	for _, par := range []int{1, 2, 4} {
		reg := telemetry.New()
		var mu sync.Mutex
		var done []PointDone
		opt := ExpOptions{Parallelism: par, Deadline: superviseOnly, Telemetry: reg,
			Progress: func(p PointDone) { mu.Lock(); done = append(done, p); mu.Unlock() }}
		out, st := runPoints(opt, "", labels, func(_ PointCtx, i int) []float64 {
			if i == 2 {
				panic("probe exploded")
			}
			return compute(i)
		})
		for i := range out {
			if i == 2 {
				if out[i] != nil {
					t.Fatalf("par=%d: gapped slot not zero: %v", par, out[i])
				}
				continue
			}
			if !reflect.DeepEqual(out[i], clean[i]) {
				t.Fatalf("par=%d: point %d perturbed: %v != %v", par, i, out[i], clean[i])
			}
		}
		if len(st.Gaps) != 1 || st.Gaps[0].Index != 2 || st.Gaps[0].Kind != resilience.KindPanic {
			t.Fatalf("par=%d: gaps = %+v", par, st.Gaps)
		}
		if !strings.Contains(st.Gaps[0].Cause, "probe exploded") || st.Gaps[0].Label != "p2" {
			t.Fatalf("par=%d: gap detail lost: %+v", par, st.Gaps[0])
		}
		if got := st.GapLabels(); len(got) != 1 || got[0] != "p2" {
			t.Fatalf("par=%d: GapLabels = %v", par, got)
		}
		gapsFlagged := 0
		for _, p := range done {
			if p.Gap {
				gapsFlagged++
				if p.Index != 2 {
					t.Fatalf("par=%d: wrong point flagged: %+v", par, p)
				}
			}
		}
		if gapsFlagged != 1 {
			t.Fatalf("par=%d: progress gap flags = %d", par, gapsFlagged)
		}
		if got := reg.Counter("resilience_panics_recovered_total").Value(); got != 1 {
			t.Fatalf("par=%d: panic counter = %d", par, got)
		}
		if !strings.Contains(st.String(), "1 gaps") {
			t.Fatalf("par=%d: stats summary omits gaps: %s", par, st)
		}
	}
}

// TestRunPointsThreadPanicIsolation extends the isolation contract to a
// panic raised on a simulated workload thread — a sim.Proc body deep
// inside a real rig, not the point function itself: it surfaces from the
// rig's event loop on the point's goroutine, becomes a PointError of
// kind panic, the deferred Close drains the rig, and the other points'
// results are untouched.
func TestRunPointsThreadPanicIsolation(t *testing.T) {
	spec := workloads.Silo()
	labels := []string{"p0", "p1", "p2"}
	point := func(buggy int) func(PointCtx, int) float64 {
		return func(pc PointCtx, i int) float64 {
			r := NewRig(spec, RigOptions{Seed: int64(10 + i), Rate: 0.3 * spec.FailureRPS, Probes: true, Clock: pc.Clock})
			defer r.Close()
			if i == buggy {
				r.ServerK.NewProcess("buggy").SpawnThread("t", func(th *kernel.Thread) {
					th.Sleep(150 * time.Millisecond) // inside the measurement window
					panic("workload thread exploded")
				})
			}
			r.Warmup(100 * time.Millisecond)
			return r.Measure(100 * time.Millisecond).Load.RealRPS
		}
	}
	clean, _ := runPoints(ExpOptions{Parallelism: 1}, "", labels, point(-1))
	for _, par := range []int{1, 2} {
		out, st := runPoints(ExpOptions{Parallelism: par, Deadline: superviseOnly}, "", labels, point(1))
		if out[0] != clean[0] || out[2] != clean[2] || clean[0] == 0 || clean[2] == 0 {
			t.Fatalf("par=%d: bystander points perturbed: %v vs clean %v", par, out, clean)
		}
		if out[1] != 0 {
			t.Fatalf("par=%d: gapped slot not zero: %v", par, out[1])
		}
		if len(st.Gaps) != 1 || st.Gaps[0].Index != 1 || st.Gaps[0].Kind != resilience.KindPanic ||
			!strings.Contains(st.Gaps[0].Cause, "workload thread exploded") {
			t.Fatalf("par=%d: gaps = %+v", par, st.Gaps)
		}
	}
}

// TestSweepDeadlineKill drives a real rig whose budget is exhausted
// before it starts: the event loop's cooperative check unwinds it as a
// deadline kill and the sweep degrades to a gap-marked point instead of
// stalling or crashing.
func TestSweepDeadlineKill(t *testing.T) {
	reg := telemetry.New()
	opt := tinyOpts()
	opt.Parallelism = 1
	opt.Deadline = time.Nanosecond // expires before the first event fires
	opt.Telemetry = reg
	res := SaturationSweep(workloads.Silo(), opt)
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for i, p := range res.Points {
		if !p.Gap {
			t.Fatalf("point %d survived a 1ns budget: %+v", i, p)
		}
		if p.Level != opt.Levels[i] {
			t.Fatalf("gap point %d lost its level: %+v", i, p)
		}
	}
	if got := reg.Counter("resilience_deadline_kills_total").Value(); got != 2 {
		t.Fatalf("deadline counter = %d", got)
	}
	// A generous budget must not perturb the run.
	gen := tinyOpts()
	gen.Parallelism = 1
	plain := SaturationSweep(workloads.Silo(), gen)
	gen.Deadline = time.Hour
	budgeted := SaturationSweep(workloads.Silo(), gen)
	if !reflect.DeepEqual(plain, budgeted) {
		t.Fatalf("unexpired budget perturbed the sweep:\n%+v\n%+v", plain, budgeted)
	}
}

// TestChaosSweepIdentical is the seed-preserving-retry contract against
// real rigs: a sweep whose first attempts are panicked and hung by chaos
// recovers, through retries, to exactly the unperturbed sweep.
func TestChaosSweepIdentical(t *testing.T) {
	opt := tinyOpts()
	opt.Parallelism = 2
	plain := SaturationSweep(workloads.Silo(), opt)

	chaos := opt
	chaos.Retries = 2
	chaos.Deadline = time.Minute
	chaos.Chaos = &resilience.Chaos{PanicNth: 1, HangNth: 2} // point 0 panics, point 1 hangs
	chaos.Telemetry = telemetry.New()
	recovered := SaturationSweep(workloads.Silo(), chaos)
	if !reflect.DeepEqual(plain, recovered) {
		t.Fatalf("chaos + retries diverged from the clean sweep:\n%+v\n%+v", plain, recovered)
	}
	if got := chaos.Telemetry.Counter("resilience_retries_total").Value(); got < 2 {
		t.Fatalf("retry counter = %d, want >= 2 (both points injected)", got)
	}
	if got := chaos.Telemetry.Counter("resilience_gaps_total").Value(); got != 0 {
		t.Fatalf("gap counter = %d, want 0 (all recovered)", got)
	}
}

// TestRobustnessChaosIdentical: the robustness matrix's chaos level —
// fault plans composed with supervisor-injected panics/hangs — equals
// the unperturbed matrix value-for-value once retries recover every
// injection.
func TestRobustnessChaosIdentical(t *testing.T) {
	specs := []workloads.Spec{workloads.Silo()}
	plans := []faults.Plan{faults.CPUOfflinePlan(2)}
	opt := tinyOpts()
	opt.Parallelism = 2
	plain := RobustnessMatrix(specs, plans, opt)
	chaotic := RobustnessMatrix(specs, plans, ChaosOptions(opt))
	if !reflect.DeepEqual(plain, chaotic) {
		t.Fatalf("chaos matrix diverged:\n%+v\n%+v", plain, chaotic)
	}
	if len(chaotic) != 1 || len(chaotic[0].Gaps) != 0 {
		t.Fatalf("chaos matrix left gaps: %+v", chaotic)
	}
}

// TestResumeEngineSemantics covers the resume cache on a synthetic
// batch: cached points skip recomputation, are re-checkpointed so the
// resumed journal is itself resumable, and checkpoints from a different
// root seed are refused.
func TestResumeEngineSemantics(t *testing.T) {
	labels := []string{"a", "b", "c"}
	compute := func(i int) []float64 { return []float64{float64(i) + 0.25} }

	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := telemetry.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	first, _ := runPoints(ExpOptions{Parallelism: 1, Journal: j}, "",
		labels, func(_ PointCtx, i int) []float64 { return compute(i) })
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate SIGKILL mid-append: drop the last checkpoint and tear the
	// remaining tail mid-line. The reader must keep the intact records.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := bytes.LastIndexByte(bytes.TrimRight(data, "\n"), '\n')
	torn := data[:cut+10] // keep a partial final line
	recs, err := telemetry.ReadJournal(bytes.NewReader(torn))
	if err != nil {
		t.Fatalf("torn journal must read: %v", err)
	}
	cps := telemetry.Checkpoints(recs)
	if len(cps) != 2 {
		t.Fatalf("checkpoints after tear = %d, want 2", len(cps))
	}

	// Resume: two cached, one recomputed; results identical.
	recomputed := 0
	reg := telemetry.New()
	j2, err := telemetry.OpenJournal(path + ".resumed")
	if err != nil {
		t.Fatal(err)
	}
	resumed, st := runPoints(ExpOptions{Parallelism: 1, Resume: cps, Journal: j2, Telemetry: reg}, "",
		labels, func(_ PointCtx, i int) []float64 { recomputed++; return compute(i) })
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, resumed) {
		t.Fatalf("resume diverged: %v != %v", resumed, first)
	}
	if recomputed != 1 || st.Cached != 2 {
		t.Fatalf("recomputed=%d cached=%d, want 1/2", recomputed, st.Cached)
	}
	if got := reg.Counter("harness_points_resumed_total").Value(); got != 2 {
		t.Fatalf("resumed counter = %d", got)
	}

	// Resume-of-resume: the resumed journal checkpoints all 3 points.
	f, err := os.Open(path + ".resumed")
	if err != nil {
		t.Fatal(err)
	}
	recs2, err := telemetry.ReadJournal(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := telemetry.Checkpoints(recs2); len(got) != 3 {
		t.Fatalf("resumed journal checkpoints = %d, want 3", len(got))
	}

	// A checkpoint written under another root seed must be refused.
	wrongSeed := ExpOptions{Parallelism: 1, Seed: 43, Resume: cps}
	recomputed = 0
	_, st = runPoints(wrongSeed, "", labels, func(_ PointCtx, i int) []float64 { recomputed++; return compute(i) })
	if recomputed != 3 || st.Cached != 0 {
		t.Fatalf("wrong-seed resume: recomputed=%d cached=%d, want 3/0", recomputed, st.Cached)
	}

	// So must one whose recorded index disagrees with the point's batch
	// position — a label match alone is not proof it is the same point.
	shifted := map[string]telemetry.Record{}
	for k, r := range cps {
		r.Index++
		shifted[k] = r
	}
	recomputed = 0
	_, st = runPoints(ExpOptions{Parallelism: 1, Resume: shifted}, "", labels,
		func(_ PointCtx, i int) []float64 { recomputed++; return compute(i) })
	if recomputed != 3 || st.Cached != 0 {
		t.Fatalf("index-mismatch resume: recomputed=%d cached=%d, want 3/0", recomputed, st.Cached)
	}
}

// TestResumeExperimentNamespacing is the regression test for checkpoint
// key collisions: SaturationSweep and StreamAgreement label their points
// identically ("<workload> level=X"), so in a journal covering both (as
// `reqlens all -journal F` records) the agreement run's checkpoints
// used to shadow the sweep's — and a resumed sweep silently replayed
// zero-valued SweepPoints unmarshalled from AgreementPoint JSON. With
// experiment-scoped keys both sets coexist and resuming the sweep
// replays the sweep's own bytes.
func TestResumeExperimentNamespacing(t *testing.T) {
	spec := workloads.Silo()
	opt := tinyOpts()
	opt.Parallelism = 1
	clean := SaturationSweep(spec, opt)

	path := filepath.Join(t.TempDir(), "all.jsonl")
	j, err := telemetry.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	jopt := opt
	jopt.Journal = j
	SaturationSweep(spec, jopt)
	StreamAgreement(spec, jopt) // same point labels, different result type
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := telemetry.ReadJournal(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	cps := telemetry.Checkpoints(recs)
	if want := 2 * len(opt.Levels); len(cps) != want {
		t.Fatalf("checkpoints = %d, want %d (both experiments kept)", len(cps), want)
	}

	ropt := opt
	ropt.Resume = cps
	var st RunStats
	ropt.Stats = func(s RunStats) { st = s }
	resumed := SaturationSweep(spec, ropt)
	if st.Cached != len(opt.Levels) {
		t.Fatalf("cached = %d, want %d (all sweep points replayed)", st.Cached, len(opt.Levels))
	}
	if !reflect.DeepEqual(clean, resumed) {
		t.Fatalf("resume replayed another experiment's checkpoints:\n%+v\n%+v", clean, resumed)
	}
}

// TestResumeBitIdentical is the kill-and-resume acceptance criterion:
// interrupt a journaled run after k of n points, resume from the
// journal, and the assembled result is deep-equal to the uninterrupted
// run. Fig2's rendering is also pinned by the checked-in golden file;
// StreamAgreement checks that every field of a ring-sink sample survives
// the journal.
func TestResumeBitIdentical(t *testing.T) {
	if raceEnabled {
		t.Skip("byte-exact regression compare; re-running under -race adds no coverage")
	}
	spec := workloads.Silo()
	t.Run("Fig2", func(t *testing.T) {
		full, cps := journalThenKill(t, func(o ExpOptions) Fig2Result { return Fig2(spec, o) })
		for _, par := range []int{1, 3} {
			ropt := Quick()
			ropt.Deadline = superviseOnly
			ropt.Parallelism = par
			ropt.Resume = cps
			resumed := Fig2(spec, ropt)
			if !reflect.DeepEqual(full, resumed) {
				t.Fatalf("par=%d: resumed Fig2 diverged from the uninterrupted run", par)
			}
			if RenderFig2(full) != RenderFig2(resumed) {
				t.Fatalf("par=%d: resumed rendering diverged", par)
			}
			// The golden file pins the uninterrupted bytes; the resumed run
			// must match it too.
			checkGolden(t, "fig2_silo.json", resumed)
		}
	})
	t.Run("StreamAgreement", func(t *testing.T) {
		full, cps := journalThenKill(t, func(o ExpOptions) StreamAgreementResult { return StreamAgreement(spec, o) })
		ropt := Quick()
		ropt.Deadline = superviseOnly
		ropt.Resume = cps
		if resumed := StreamAgreement(spec, ropt); !reflect.DeepEqual(full, resumed) {
			t.Fatalf("resumed StreamAgreement diverged from the uninterrupted run:\n%+v\n%+v", full, resumed)
		}
	})
}

// journalThenKill runs run once at Quick scale with a journal, then
// "kills" it after 2 of its 3 levels: it keeps only the first two
// checkpoints, as a SIGKILL between checkpoint flushes would. It returns
// the uninterrupted result and the kept checkpoints.
func journalThenKill[R any](t *testing.T, run func(ExpOptions) R) (R, map[string]telemetry.Record) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := telemetry.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	opt := Quick()
	opt.Deadline = superviseOnly
	opt.Journal = j
	full := run(opt)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := telemetry.ReadJournal(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	var kept []telemetry.Record
	seen := 0
	for _, r := range recs {
		if r.Kind == telemetry.KindCheckpoint {
			if seen >= 2 {
				continue
			}
			seen++
		}
		kept = append(kept, r)
	}
	cps := telemetry.Checkpoints(kept)
	if len(cps) != 2 {
		t.Fatalf("checkpoints kept = %d, want 2", len(cps))
	}
	return full, cps
}
