package main

// These tests cover the benchmark's own parsing, checking and comparing
// on captured fixtures. None of them launches reqlens or the benchmark.

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func fixture(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestParseProm(t *testing.T) {
	m, err := parseProm([]byte(fixture(t, "metrics.prom")))
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"sim_events_total":              10205688,
		"trace_tracepoint_fires_total":  1961115,
		"harness_point_wall_ns_count":   4,
		"ringbuf_records_dropped_total": 0,
	} {
		if got, ok := m[name]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", name, got, ok, want)
		}
	}
	labelled := false
	for name := range m {
		labelled = labelled || strings.HasPrefix(name, "harness_point_wall_ns_bucket{le=")
	}
	if !labelled {
		t.Error("histogram bucket series lost their labels")
	}
	if _, err := parseProm([]byte("sim_events_total ten\n")); err == nil {
		t.Error("a non-numeric value parsed")
	}
}

func TestParseJournal(t *testing.T) {
	raw := fixture(t, "journal.jsonl")
	js, err := parseJournal([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	if js.Experiments != 1 || js.Points != 4 {
		t.Fatalf("experiments %d points %d, want 1 and 4", js.Experiments, js.Points)
	}
	if js.PointS <= 0 || js.PointS > js.ExperimentS {
		t.Errorf("sequential run: point spans %.3fs must be positive and inside the experiment span %.3fs", js.PointS, js.ExperimentS)
	}
	// A torn final line is the journal's own crash tolerance.
	torn, err := parseJournal([]byte(raw[:len(raw)-40]))
	if err != nil {
		t.Fatalf("torn tail: %v", err)
	}
	if torn.Points != 4 || torn.Experiments != 0 {
		t.Errorf("torn tail: points %d experiments %d, want 4 and 0", torn.Points, torn.Experiments)
	}
	lines := strings.SplitAfter(raw, "\n")
	lines[2] = "{not json}\n"
	if _, err := parseJournal([]byte(strings.Join(lines, ""))); err == nil {
		t.Error("a malformed line in the middle parsed")
	}
}

func TestBucketOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.chanrecv", "reqlens/internal/sim.(*Proc).yield"}, "goruntime.sched_cpu_share"},
		{[]string{"runtime.casgstatus"}, "goruntime.sched_cpu_share"},
		{[]string{"runtime.(*mLockProfile).recordUnlock"}, "goruntime.sched_cpu_share"},
		{[]string{"gogo"}, "goruntime.sched_cpu_share"},
		{[]string{"ebpf.compileProgram.combine.func4"}, "ebpf.cpu_share"},
		{[]string{"reqlens/internal/ebpf.(*Program).Run"}, "ebpf.cpu_share"},
		{[]string{"container/heap.down", "reqlens/internal/kernel.(*scheduler).compute"}, "sim.cpu_share"},
		{[]string{"runtime.mallocgc", "reqlens/internal/telemetry.ParseProm"}, "goruntime.gc_cpu_share"},
		{[]string{"runtime.(*mspan).writeHeapBitsSmall"}, "goruntime.gc_cpu_share"},
		{[]string{"strconv.ParseFloat", "reqlens/internal/telemetry.ParseProm", "reqlens/internal/fleet.(*Cluster).ScrapeEpoch"}, "telemetry.cpu_share"},
		{[]string{"internal/runtime/maps.(*Map).getWithKeySmall", "runtime.mapaccess1", "reqlens/internal/sim.(*Env).Spawn"}, "sim.cpu_share"},
		{[]string{"runtime.memmove", "runtime.systemstack"}, "goruntime.other_cpu_share"},
		{[]string{"strconv.ParseFloat", "main.main"}, "other.cpu_share"},
		{[]string{"reqlens/internal/resilience.(*Supervisor).Run"}, "other.cpu_share"},
	} {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestParsePprofTraces(t *testing.T) {
	shares, total, err := parsePprofTraces([]byte(fixture(t, "traces.txt")))
	if err != nil {
		t.Fatal(err)
	}
	if !near(total, 1.0) {
		t.Errorf("total %.3fs, want 1s", total)
	}
	want := map[string]float64{
		"goruntime.sched_cpu_share": 0.34, "ebpf.cpu_share": 0.20, "sim.cpu_share": 0.10,
		"telemetry.cpu_share": 0.15, "goruntime.gc_cpu_share": 0.15,
		"goruntime.other_cpu_share": 0.03, "other.cpu_share": 0.03,
	}
	sum := 0.0
	for _, name := range cpuBuckets {
		got, ok := shares[name]
		if !ok {
			t.Errorf("%s missing", name)
		}
		if !near(got, want[name]) {
			t.Errorf("%s = %.4f, want %.4f", name, got, want[name])
		}
		sum += got
	}
	if !near(sum, 1) {
		t.Errorf("shares sum to %.6f, want 1", sum)
	}
	if _, _, err := parsePprofTraces([]byte("File: bench\nType: cpu\n")); err == nil {
		t.Error("a profile without samples parsed")
	}
}

func TestStats(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	in := []float64{5, 7, 6}
	st := newStat("s", in)
	if st.Median != 6 || st.Min != 5 || st.Max != 7 || st.N != 3 || st.Unit != "s" {
		t.Errorf("newStat = %+v", st)
	}
	if !reflect.DeepEqual(in, []float64{5, 7, 6}) {
		t.Error("median reordered its input")
	}
	if noisy(1.00, 1.05, false) || !noisy(1.00, 1.15, false) || !noisy(1.15, 1.00, false) || !noisy(1, 1, true) {
		t.Error("noise guard: 10 % calibration drift or a loaded host marks the run noisy, nothing else")
	}
}

func TestCheckSweep(t *testing.T) {
	good := fixture(t, "fig3.txt")
	w, _ := workloadByName("sweep-dc")
	checkSweep := func(stdout string) (int, []string) { return w.check(w, stdout) }
	if failed, problems := checkSweep(good); failed != 0 {
		t.Fatalf("good panel: %d failed: %v", failed, problems)
	}
	if failed, _ := checkSweep(good + "gap levels (—): 1.00, 1.15\n"); failed != 2 {
		t.Errorf("two gapped levels: %d failed, want 2", failed)
	}
	if failed, _ := checkSweep(good[:len(good)/2]); failed != 4 {
		t.Errorf("truncated panel: %d failed, want all 4", failed)
	}
	if failed, _ := checkSweep(""); failed != 4 {
		t.Errorf("empty stdout: %d failed, want all 4", failed)
	}
}

func TestCheckWaitStates(t *testing.T) {
	good := fixture(t, "waitstates.txt")
	w, _ := workloadByName("waitstates-dc")
	checkWaitStates := func(stdout string) (int, []string) { return w.check(w, stdout) }
	if failed, problems := checkWaitStates(good); failed != 0 {
		t.Fatalf("good tables: %d failed: %v", failed, problems)
	}
	row := "overload           |     2119 |  43.90% |  15.00% |  41.10% |      9.18ms |     3240696 | ok\n"
	if !strings.Contains(good, row) {
		t.Fatal("fixture lost its overload row")
	}
	gapped := strings.Replace(good, row, "overload           | — point lost to supervision gap\n", 1)
	if failed, _ := checkWaitStates(gapped); failed != 1 {
		t.Errorf("gapped row: %d failed, want 1", failed)
	}
	broken := strings.Replace(good, row, strings.Replace(row, "15.00%", "25.00%", 1), 1)
	if failed, problems := checkWaitStates(broken); failed != 1 || !strings.Contains(strings.Join(problems, ";"), "shares sum to 110.00%") {
		t.Errorf("broken share sum: %d failed (%v), want 1", failed, problems)
	}
	if failed, _ := checkWaitStates(good[:strings.Index(good, "diagnosis")]); failed != 4 {
		t.Errorf("diagnosis table cut off: %d failed, want 4", failed)
	}
}

func TestCheckFleet(t *testing.T) {
	good := fixture(t, "fleet.txt")
	checkFleet := func(stdout string, maxErr float64) (int, []string) {
		return checkFleet(workload{points: 3, maxRPSErr: maxErr}, stdout)
	}
	if failed, problems := checkFleet(good, 0.02); failed != 0 {
		t.Fatalf("good table: %d failed: %v", failed, problems)
	}
	if got := fleetMissed(good); got != 8 {
		t.Errorf("missed scrapes = %v, want 3+4+1", got)
	}
	row := "0.60   |    18578.6 |   18592.6* |    0.600 |     0 |      0 |      4\n"
	if !strings.Contains(good, row) {
		t.Fatal("fixture lost its 0.60 row")
	}
	gapped := strings.Replace(good, row, "0.60   |          — |          — |        — |     — |      — |      —\n", 1)
	if failed, _ := checkFleet(gapped, 0.02); failed != 1 {
		t.Errorf("gapped level: %d failed, want 1", failed)
	}
	off := strings.Replace(good, "18592.6*", "19592.6*", 1)
	if failed, _ := checkFleet(off, 0.02); failed != 1 {
		t.Errorf("5 %% RPS error: %d failed, want 1", failed)
	}
	if failed, _ := checkFleet(off, 0); failed != 0 {
		t.Errorf("fleet-scrape makes no RPS claim: %d failed, want 0", failed)
	}
	if failed, _ := checkFleet(good[:strings.Index(good, "0.60")], 0.02); failed != 2 {
		t.Errorf("two level rows cut off: %d failed, want 2", failed)
	}
}

func TestTracedMetrics(t *testing.T) {
	prom, err := parseProm([]byte(fixture(t, "metrics.prom")))
	if err != nil {
		t.Fatal(err)
	}
	js := journalSpans{Experiments: 1, Points: 4, ExperimentS: 7.0, PointS: 6.9}
	m := tracedMetrics(prom, js, fixture(t, "fig3.txt"), 7.7, 7.0, 8.0)
	for name, want := range map[string]float64{
		"sim.events":                10205688,
		"ebpf.insns_per_run":        108872372.0 / 7845058.0,
		"kernel.fires_per_event":    1961115.0 / 10205688.0,
		"ebpf.ring_drop_ratio":      0,
		"fleet.miss_ratio":          0, // no fleet in this run: 0, not NaN
		"sim.host_ns_per_event":     8.0 * 1e9 / 10205688.0,
		"harness.engine_overhead_s": 7.0 - 6.9,
		"cmd.outside_experiment_s":  7.7 - 7.0,
		"trace.overhead_pct":        100 * (7.7 - 7.0) / 7.0,
	} {
		if got, ok := m[name]; !ok || !near(got.Value, want) {
			t.Errorf("%s = %v (present %v), want %v", name, got.Value, ok, want)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "host_s", Unit: "s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "tracepoints_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	st := func(vs ...float64) Stat { return newStat("s", vs) }
	for _, c := range []struct {
		name string
		d    metricDef
		a, b Stat
		want string
	}{
		{"same", lower, st(7.0, 7.1, 7.2), st(7.05, 7.1, 7.15), "ok"},
		{"clearly slower", lower, st(7.0, 7.1, 7.2), st(8.4, 8.5, 8.6), "worse"},
		{"clearly faster", lower, st(7.0, 7.1, 7.2), st(5.0, 5.1, 5.2), "ok"},
		{"ranges overlap by more than the bound", lower, st(6.0, 7.0, 8.0), st(6.2, 7.9, 8.1), "unresolved"},
		{"slower within bound", lower, st(7.0, 7.1, 7.2), st(7.3, 7.5, 7.6), "ok"},
		{"throughput dropped", higher, st(100, 101, 102), st(80, 81, 82), "worse"},
		{"throughput rose", higher, st(100, 101, 102), st(120, 121, 122), "ok"},
	} {
		if _, got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	mk := func(host ...float64) *Result {
		return &Result{Provenance: Provenance{Seed: 42}, Workloads: map[string]*WorkloadResult{
			"sweep-dc": {
				EndToEnd:     map[string]Stat{"host_s": newStat("s", host)},
				Counts:       map[string]float64{"sim.events": 10},
				StdoutSHA256: "abc",
			},
		}}
	}
	var out bytes.Buffer
	if worse := compare(&out, mk(7.0, 7.1, 7.2), mk(7.0, 7.1, 7.2)); worse != 0 {
		t.Errorf("identical results: %d worse rows\n%s", worse, out.String())
	}
	for _, want := range []string{"B/A (base A)", "sweep-dc", "host_s [s]", "1.0000", "25%", "equal"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare output lacks %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	b := mk(9.4, 9.5, 9.6)
	b.Workloads["sweep-dc"].Counts["sim.events"] = 11
	if worse := compare(&out, mk(7.0, 7.1, 7.2), b); worse != 1 {
		t.Errorf("slower result: %d worse rows, want 1\n%s", worse, out.String())
	}
	if !strings.Contains(out.String(), "DIFFER") || !strings.Contains(out.String(), "sim.events 10 -> 11") {
		t.Errorf("changed count not reported:\n%s", out.String())
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the benchmark's own tables
// from drifting apart.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Command, []string{"bash", "bench/run.sh"}) || !reflect.DeepEqual(spec.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", spec.Command, spec.Paths)
	}
	if len(spec.Workloads) != len(basket) {
		t.Fatalf("%d workloads, the basket has %d", len(spec.Workloads), len(basket))
	}
	for i, w := range basket {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, basket has %s: %s", i, spec.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, want %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := spec.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, want %+v", i, got, d)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, want %d", len(spec.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		got := spec.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, want %+v", i, got, d)
		}
	}
}
