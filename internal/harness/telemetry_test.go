package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"reqlens/internal/telemetry"
	"reqlens/internal/workloads"
)

// simSnapshot filters a registry snapshot down to simulation-derived
// instruments: everything except the engine's harness_* wall-clock
// metrics, which legitimately vary run to run.
func simSnapshot(r *telemetry.Registry) map[string]float64 {
	out := map[string]float64{}
	for k, v := range r.Snapshot() {
		if strings.HasPrefix(k, "harness_") {
			continue
		}
		out[k] = v
	}
	return out
}

// TestTelemetryParallelDeterminism is the tentpole invariant: enabling
// telemetry must not change experiment results, and the merged run-level
// counters must themselves be bit-identical across Parallelism settings
// (per-point registries fold by commutative addition).
func TestTelemetryParallelDeterminism(t *testing.T) {
	spec := workloads.DataCaching()

	base := Fig2(spec, Quick()) // telemetry off: the reference result

	run := func(parallelism int) (Fig2Result, map[string]float64) {
		opt := Quick()
		opt.Parallelism = parallelism
		opt.Telemetry = telemetry.New()
		res := Fig2(spec, opt)
		return res, simSnapshot(opt.Telemetry)
	}
	seqRes, seqMetrics := run(1)
	parRes, parMetrics := run(4)

	if !reflect.DeepEqual(base, seqRes) {
		t.Fatalf("telemetry changed results:\noff = %+v\non  = %+v", base, seqRes)
	}
	if !reflect.DeepEqual(seqRes, parRes) {
		t.Fatalf("results diverged across Parallelism:\nseq = %+v\npar = %+v", seqRes, parRes)
	}
	if !reflect.DeepEqual(seqMetrics, parMetrics) {
		t.Fatalf("merged counters diverged across Parallelism:\nseq = %v\npar = %v", seqMetrics, parMetrics)
	}
	for _, name := range []string{
		"sim_events_total",
		"sched_dispatches_total",
		"sched_ctx_switches_total",
		"trace_tracepoint_fires_total",
		"vm_runs_total",
		"vm_instructions_total",
		"vm_helper_calls_total",
		"vm_map_ops_total",
		"verifier_states_total",
		"verifier_programs_total",
	} {
		if seqMetrics[name] == 0 {
			t.Errorf("%s = 0; a probed Fig2 run must exercise it", name)
		}
	}
	if seqMetrics["vm_run_errors_total"] != 0 {
		t.Errorf("vm_run_errors_total = %v, want 0", seqMetrics["vm_run_errors_total"])
	}
}

// TestTelemetryPromJournalRoundTrip drives one instrumented, journaled
// experiment and checks both export paths end to end: the Prometheus
// text dump parses back to the registry's values, and the JSONL journal
// reads back and renders.
func TestTelemetryPromJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	opt := Quick()
	opt.Telemetry = telemetry.New()
	j, err := telemetry.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	opt.Journal = j
	spec := workloads.DataCaching()
	Fig2(spec, opt)
	if err := j.Close(); err != nil {
		t.Fatalf("closing the journal: %v", err)
	}

	var pbuf bytes.Buffer
	if err := opt.Telemetry.WriteProm(&pbuf); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	parsed, err := telemetry.ParseProm(bytes.NewReader(pbuf.Bytes()))
	if err != nil {
		t.Fatalf("ParseProm: %v", err)
	}
	if got, want := parsed["sim_events_total"], float64(opt.Telemetry.Counter("sim_events_total").Value()); got != want {
		t.Fatalf("round-tripped sim_events_total = %v, want %v", got, want)
	}
	if parsed["harness_points_total"] != float64(len(opt.Levels)) {
		t.Fatalf("harness_points_total = %v, want %d", parsed["harness_points_total"], len(opt.Levels))
	}

	jdata, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := telemetry.ReadJournal(bytes.NewReader(jdata))
	if err != nil {
		t.Fatalf("ReadJournal: %v", err)
	}
	kinds := map[string]int{}
	for _, rec := range recs {
		kinds[rec.Kind]++
		if rec.DurNS < 0 {
			t.Fatalf("record %q has negative duration %d", rec.Name, rec.DurNS)
		}
	}
	if kinds[telemetry.KindExperiment] != 1 {
		t.Fatalf("journal has %d experiment spans, want 1", kinds[telemetry.KindExperiment])
	}
	if kinds[telemetry.KindPoint] != len(opt.Levels) {
		t.Fatalf("journal has %d point spans, want %d", kinds[telemetry.KindPoint], len(opt.Levels))
	}
	if want := len(opt.Levels) * opt.Estimates; kinds[telemetry.KindWindow] != want {
		t.Fatalf("journal has %d window spans, want %d", kinds[telemetry.KindWindow], want)
	}

	rendered := telemetry.RenderJournal(recs, 3)
	for _, want := range []string{"phase", "point", "window", "experiment"} {
		if !strings.Contains(rendered, want) {
			t.Fatalf("rendered journal missing %q:\n%s", want, rendered)
		}
	}
}
