// Command bench is the end-to-end and per-layer host-time benchmark of
// reqlens. It builds cmd/reqlens, runs a closed basket of five CLI
// workloads as child processes with tracing off (end-to-end metrics),
// once more with -metrics and -journal (exact per-layer counts and the
// harness's own spans), and drives one representative point of each
// workload in-process under its own spans and a CPU profile (host CPU
// split by package). See README.md beside this file.
//
//	go -C bench run . [-seed N] [-reps N] [-workload W] [-out F] [-append F]
//	go -C bench run . -compare A.json B.json
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// setupReps is how many times set-up is timed per run (setup_s is
// their median).
const setupReps = 5

// state is one workload's measurements while a run is in progress.
type state struct {
	w      workload
	res    *WorkloadResult
	traced childRun
	prom   map[string]float64
	spans  journalSpans

	hostS, cpuS, rssMB []float64 // untraced repetitions
	setupS             []float64
	layer              map[string]Metric
}

type runner struct {
	root, bin string
	seed      int64
}

// child runs one repetition of s's workload and applies every output
// check to it. The traced run comes first and is the reference the
// untraced repetitions' stdout must equal byte for byte.
func (r *runner) child(s *state, traced bool) error {
	c, err := runChild(r.root, r.bin, s.w.args, r.seed, traced)
	if err != nil {
		return err
	}
	kind := "timed"
	if traced {
		kind = "traced"
	}
	fmt.Printf("  %-16s %-6s host %.3fs cpu %.3fs rss %.1fMB\n", s.w.name, kind, c.HostS, c.CPUS, c.RSSMB)

	failed, problems := s.w.check(s.w, string(c.Stdout))
	if c.Err != "" {
		failed, problems = s.w.points, append(problems, "process: "+c.Err)
	}
	if traced {
		s.traced = c
		s.res.StdoutSHA256 = c.sha256()
		if c.Err == "" {
			if s.prom, err = parseProm(c.Metrics); err != nil {
				return err
			}
			if s.spans, err = parseJournal(c.Journal); err != nil {
				return err
			}
			for _, series := range []string{"vm_run_errors_total", "ringbuf_records_dropped_total"} {
				if v := s.prom[series]; v != 0 {
					failed, problems = s.w.points, append(problems, fmt.Sprintf("%s = %.0f", series, v))
				}
			}
			if v := s.prom["harness_points_total"]; int(v) != s.w.points {
				failed, problems = s.w.points, append(problems, fmt.Sprintf("harness_points_total = %.0f, want %d", v, s.w.points))
			}
		}
	} else {
		if !bytes.Equal(c.Stdout, s.traced.Stdout) {
			failed, problems = s.w.points, append(problems, "stdout differs from the traced run's")
		}
		s.hostS = append(s.hostS, c.HostS)
		s.cpuS = append(s.cpuS, c.CPUS)
		s.rssMB = append(s.rssMB, c.RSSMB)
	}
	s.res.Attempted += s.w.points
	s.res.Failed += failed
	s.res.Problems = append(s.res.Problems, problems...)
	return nil
}

// finish turns s's raw measurements into its result's metrics.
func (s *state) finish(trace int) {
	fires := s.prom["trace_tracepoint_fires_total"]
	if trace != 1 {
		perS := make([]float64, len(s.hostS))
		for i, h := range s.hostS {
			perS[i] = fires / h
		}
		s.res.EndToEnd = map[string]Stat{
			"host_s":            newStat("s", s.hostS),
			"cpu_s":             newStat("s", s.cpuS),
			"peak_rss_mb":       newStat("MB", s.rssMB),
			"setup_s":           newStat("s", s.setupS),
			"tracepoints_per_s": newStat("1/s", perS),
		}
	}
	tm := tracedMetrics(s.prom, s.spans, string(s.traced.Stdout), s.traced.HostS, median(s.hostS), median(s.cpuS))
	s.res.Counts = make(map[string]float64)
	for _, c := range counts {
		s.res.Counts[c.name] = tm[c.name].Value
	}
	s.res.Counts["fleet.scrapes_missed"] = tm["fleet.scrapes_missed"].Value
	if trace != 0 {
		s.res.PerLayer = tm
		for k, v := range s.layer {
			s.res.PerLayer[k] = v
		}
	}
}

func (s *state) print() {
	fmt.Printf("\n%s: reqlens %s\n", s.w.name, strings.Join(s.res.Argv, " "))
	fmt.Printf("  fail_share %d/%d  stdout_sha256 %s\n", s.res.Failed, s.res.Attempted, s.res.StdoutSHA256)
	for _, p := range s.res.Problems {
		fmt.Printf("  CHECK FAILED: %s\n", p)
	}
	for _, d := range endToEnd {
		if st, ok := s.res.EndToEnd[d.Name]; ok {
			fmt.Printf("  %-28s %16.6g %-6s (min %.6g max %.6g n %d)\n", d.Name, st.Median, st.Unit, st.Min, st.Max, st.N)
		}
	}
	for _, d := range perLayer {
		if m, ok := s.res.PerLayer[d.Name]; ok {
			fmt.Printf("  %-28s %16.6g %s\n", d.Name, m.Value, m.Unit)
		}
	}
}

// run measures the selected workloads. trace 0 = end-to-end metrics
// only, 1 = per-layer metrics only, -1 = both. With seconds > 0 timed
// repetitions of a workload start while its timed total is below
// seconds (at least two); otherwise reps of them run.
func run(sel []workload, seed int64, trace, reps int, seconds float64, outPath, appendPath string) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	loaded := loadAbove()
	calibBefore := calibrate()
	if err := os.MkdirAll(filepath.Join(root, buildDir), 0o755); err != nil {
		return err
	}
	bin, err := buildCLI(root)
	if err != nil {
		return err
	}
	r := &runner{root: root, bin: bin, seed: seed}
	res := &Result{Provenance: provenance(root, seed), Workloads: make(map[string]*WorkloadResult)}

	states := make([]*state, len(sel))
	for i, w := range sel {
		wr := &WorkloadResult{Argv: append(append([]string(nil), w.args...), "-seed", fmt.Sprint(seed)), Points: w.points}
		res.Workloads[w.name] = wr
		states[i] = &state{w: w, res: wr}
	}

	// The traced pass comes first and doubles as the warm-up.
	fmt.Println("traced pass (-metrics, -journal):")
	for _, s := range states {
		if err := r.child(s, true); err != nil {
			return err
		}
	}

	// Timed repetitions, round-robin across workloads so host drift hits
	// all alike. The per-layer-only run needs one, to compare the traced
	// run with.
	fmt.Println("timed repetitions (tracing off):")
	want := func(s *state) bool {
		switch {
		case trace == 1:
			return len(s.hostS) < 1
		case seconds > 0:
			return len(s.hostS) < 2 || sum(s.hostS) < seconds
		}
		return len(s.hostS) < reps
	}
	for more := true; more; {
		more = false
		for _, s := range states {
			if want(s) {
				if err := r.child(s, false); err != nil {
					return err
				}
				more = true
			}
		}
	}

	if trace != 1 {
		fmt.Println("set-up (in-process, telemetry off):")
		for _, s := range states {
			for i := 0; i < setupReps; i++ {
				s.setupS = append(s.setupS, setupOnce(s.w, seed))
			}
			fmt.Printf("  %-16s setup_s %.4f (n %d)\n", s.w.name, median(s.setupS), setupReps)
		}
	}
	if trace != 0 {
		fmt.Println("layer pass (in-process, spans + CPU profile) and unit costs:")
		unit := unitCosts(seed)
		for _, s := range states {
			var spans []Span
			if s.layer, spans, err = layerPass(s.w, seed, filepath.Join(root, buildDir)); err != nil {
				return err
			}
			s.res.Spans = spans
			for k, v := range unit {
				s.layer[k] = v
			}
			fmt.Printf("  %-16s point %.3fs, %.2fs CPU sampled\n", s.w.name,
				sum(spanSeconds(spans, "point")), s.layer["goruntime.cpu_sampled_s"].Value)
		}
	}

	res.CalibS = [2]float64{calibBefore, calibrate()}
	res.Noisy = noisy(res.CalibS[0], res.CalibS[1], loaded)

	attempted, failed := 0, 0
	for _, s := range states {
		s.finish(trace)
		s.print()
		attempted += s.res.Attempted
		failed += s.res.Failed
	}
	fmt.Printf("\nhost.calib_s before %.4f after %.4f s\n", res.CalibS[0], res.CalibS[1])
	if res.Noisy {
		fmt.Println("*** NOISY HOST: calibration drifted > 10 % or load average exceeded nproc; host times are suspect ***")
	}
	fmt.Printf("fail_share %d/%d\n", failed, attempted)

	if outPath == "" {
		outPath = filepath.Join(root, buildDir, "result.json")
	}
	if err := writeResult(outPath, res); err != nil {
		return err
	}
	fmt.Println("result written to", outPath)
	if appendPath != "" {
		if err := appendHistory(appendPath, res); err != nil {
			return err
		}
	}

	// One selected workload: the last line is its result as one JSON
	// object, the form the benchmark driver reads.
	if len(states) == 1 {
		s := states[0]
		metrics := make(map[string]Metric)
		for name, st := range s.res.EndToEnd {
			metrics[name] = Metric{st.Median, st.Unit}
		}
		for name, m := range s.res.PerLayer {
			metrics[name] = m
		}
		line, err := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]Metric `json:"metrics"`
		}{failed == 0, attempted, failed, metrics})
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	return nil
}

func main() {
	name := flag.String("workload", "", "run one workload (default: all five)")
	seed := flag.Int64("seed", 42, "simulation seed handed to every reqlens run")
	reps := flag.Int("reps", 3, "timed repetitions per workload (when -seconds is 0)")
	seconds := flag.Float64("seconds", 0, "start timed repetitions while a workload's timed total is below this (at least 2)")
	trace := flag.Int("trace", -1, "0 = end-to-end metrics only, 1 = per-layer metrics only, -1 = both")
	outPath := flag.String("out", "", "result file (default .bench_build/result.json in the repository)")
	appendPath := flag.String("append", "", "append a {commit, date, seed, metrics} line to this history file")
	cmp := flag.Bool("compare", false, "compare two result files: bench -compare A.json B.json")
	flag.Parse()

	if *cmp {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare A.json B.json")
			os.Exit(2)
		}
		a, err := readResult(flag.Arg(0))
		if err == nil {
			var b *Result
			if b, err = readResult(flag.Arg(1)); err == nil {
				if compare(os.Stdout, a, b) > 0 {
					os.Exit(1)
				}
				return
			}
		}
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}

	sel := basket
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		sel = []workload{w}
	}
	if *trace < -1 || *trace > 1 || *reps < 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace is -1, 0 or 1; -reps is at least 1")
		os.Exit(2)
	}
	if err := run(sel, *seed, *trace, *reps, *seconds, *outPath, *appendPath); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
